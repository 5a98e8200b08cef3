package faultinject

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestDeterministicRuleWindow: a deterministic rule skips After
// occurrences, faults the next Count, then stays quiet.
func TestDeterministicRuleWindow(t *testing.T) {
	inj, err := New(Plan{Rules: []Rule{{Op: OpICAP, Site: "rt_1", After: 2, Count: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	var got []bool
	for i := 0; i < 6; i++ {
		got = append(got, inj.Check(OpICAP, "rt_1") != nil)
	}
	want := []bool{false, false, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("occurrence %d: faulted=%v, sequence %v", i, got[i], got)
		}
	}
	if inj.Injected() != 2 {
		t.Fatalf("injected: %d", inj.Injected())
	}
}

func TestPersistentRule(t *testing.T) {
	inj, err := New(Plan{Rules: []Rule{{Op: OpRecouple, Count: -1}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if inj.Check(OpRecouple, "rt_1") == nil {
			t.Fatalf("persistent rule skipped occurrence %d", i)
		}
	}
}

func TestSiteSelectivity(t *testing.T) {
	inj, err := New(Plan{Rules: []Rule{{Op: OpTransfer, Site: "dma", Count: -1}}})
	if err != nil {
		t.Fatal(err)
	}
	if inj.Check(OpTransfer, "mem-rsp", "rt_1") != nil {
		t.Fatal("rule for dma plane hit mem-rsp transfer")
	}
	if inj.Check(OpTransfer, "dma", "rt_1") == nil {
		t.Fatal("rule missed dma transfer")
	}
	if inj.Check(OpICAP, "dma") != nil {
		t.Fatal("transfer rule hit an ICAP operation")
	}
	// Any listed site matches, not only the first.
	if inj.Check(OpTransfer, "interrupt", "dma") == nil {
		t.Fatal("rule missed dma as secondary site")
	}
}

func TestFaultError(t *testing.T) {
	inj, err := New(Plan{Rules: []Rule{{Op: OpDecouple, Count: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	ferr := inj.Check(OpDecouple, "rt_1")
	if ferr == nil {
		t.Fatal("no fault")
	}
	f, ok := As(ferr)
	if !ok {
		t.Fatal("fault not recognized by As")
	}
	if f.Op != OpDecouple || f.Site != "rt_1" || f.Seq != 1 || f.Rule != 0 {
		t.Fatalf("fault fields: %+v", f)
	}
	if !strings.Contains(ferr.Error(), "decouple") || !strings.Contains(ferr.Error(), "rt_1") {
		t.Fatalf("error text: %v", ferr)
	}
	if _, ok := As(fmt.Errorf("plain")); ok {
		t.Fatal("plain error recognized as fault")
	}
	if _, ok := As(fmt.Errorf("wrapped: %w", ferr)); !ok {
		t.Fatal("wrapped fault not recognized")
	}
}

// TestRateRuleDeterminism: a seeded rate rule injects an identical
// fault sequence on every fresh injector.
func TestRateRuleDeterminism(t *testing.T) {
	sequence := func(seed uint64) string {
		inj, err := New(Plan{Seed: seed, Rules: []Rule{{Op: OpTransfer, Rate: 0.3}}})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i := 0; i < 200; i++ {
			if inj.Check(OpTransfer, "dma") != nil {
				b.WriteByte('X')
			} else {
				b.WriteByte('.')
			}
		}
		return b.String()
	}
	a, b := sequence(7), sequence(7)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if a == sequence(8) {
		t.Fatal("different seeds produced identical sequences (suspicious)")
	}
	hits := strings.Count(a, "X")
	if hits < 30 || hits > 90 {
		t.Fatalf("rate 0.3 over 200 draws hit %d times", hits)
	}
}

// TestRateRuleCountBound: a rate rule stops after Count injections.
func TestRateRuleCountBound(t *testing.T) {
	inj, err := New(Plan{Seed: 1, Rules: []Rule{{Op: OpKernel, Rate: 1.0, Count: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := 0; i < 50; i++ {
		if inj.Check(OpKernel, "fft") != nil {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("count bound ignored: %d faults", n)
	}
}

func TestValidation(t *testing.T) {
	bad := []Plan{
		{Rules: []Rule{{Op: OpICAP, Count: 0}}},            // never fires
		{Rules: []Rule{{Op: OpICAP, Rate: 1.5, Count: 1}}}, // rate > 1
		{Rules: []Rule{{Op: OpICAP, After: -1, Count: 1}}}, // negative after
		{Rules: []Rule{{Op: Op(99), Count: 1}}},            // unknown op
		{Rules: []Rule{{Op: OpICAP, Rate: -0.1}}},          // negative rate
	}
	for i, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
	if _, err := New(Plan{}); err != nil {
		t.Fatalf("empty plan rejected: %v", err)
	}
}

// TestSEURuleParseAndValidation: the seu op round-trips through the
// plan grammar, and the dead-rule shapes — zero rate with no count —
// are rejected with an error that names the fix instead of being
// silently accepted.
func TestSEURuleParseAndValidation(t *testing.T) {
	p, err := ParsePlan("seed=9,seu@rt_1=0.01,seu@t0:after=10:count=3")
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{Op: OpSEU, Site: "rt_1", Rate: 0.01},
		{Op: OpSEU, Site: "t0", After: 10, Count: 3},
	}
	for i, w := range want {
		if p.Rules[i] != w {
			t.Errorf("rule %d: got %+v want %+v", i, p.Rules[i], w)
		}
	}
	if _, err := ParsePlan(p.String()); err != nil {
		t.Fatalf("seu plan does not round-trip: %q: %v", p.String(), err)
	}
	for _, dead := range []string{"seu@rt_1=0", "seu=0.0", "seu@t0:count=0"} {
		_, err := ParsePlan(dead)
		if err == nil {
			t.Errorf("dead seu rule %q accepted", dead)
			continue
		}
		if !strings.Contains(err.Error(), "seu rule") || !strings.Contains(err.Error(), "rate") {
			t.Errorf("dead seu rule %q: error does not name the fix: %v", dead, err)
		}
	}
	// The generic dead-rule shape gets the generic clear error.
	if _, err := ParsePlan("icap=0"); err == nil || !strings.Contains(err.Error(), "never fires") {
		t.Errorf("dead icap rule: %v", err)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if inj.Check(OpICAP, "rt_1") != nil {
		t.Fatal("nil injector faulted")
	}
	if inj.Injected() != 0 {
		t.Fatal("nil injector counted")
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=42,icap@rt_1:after=2:count=1,transfer@dma=0.05,recouple:count=-1,crc=0.2:count=3")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 || len(p.Rules) != 4 {
		t.Fatalf("plan: %+v", p)
	}
	want := []Rule{
		{Op: OpICAP, Site: "rt_1", After: 2, Count: 1},
		{Op: OpTransfer, Site: "dma", Rate: 0.05},
		{Op: OpRecouple, Count: -1},
		{Op: OpFetchCRC, Rate: 0.2, Count: 3},
	}
	for i, w := range want {
		if p.Rules[i] != w {
			t.Errorf("rule %d: got %+v want %+v", i, p.Rules[i], w)
		}
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	in := "seed=7,icap@rt_1:after=1,transfer@dma=0.1,kernel@fft:count=-1"
	p, err := ParsePlan(in)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", p.String(), err)
	}
	if p.Seed != p2.Seed || len(p.Rules) != len(p2.Rules) {
		t.Fatalf("round trip changed plan: %q -> %q", in, p2.String())
	}
	for i := range p.Rules {
		if p.Rules[i] != p2.Rules[i] {
			t.Fatalf("rule %d changed: %+v vs %+v", i, p.Rules[i], p2.Rules[i])
		}
	}
}

func TestParsePlanErrors(t *testing.T) {
	bad := []string{
		"warp@rt_1",       // unknown op
		"icap@",           // empty site
		"seed=banana",     // bad seed
		"icap:count=x",    // bad count
		"icap:depth=3",    // unknown option
		"transfer=2.0",    // rate out of range
		"icap:count=0",    // never fires
		"icap@rt_1:after", // option without value
	}
	for _, s := range bad {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("accepted %q", s)
		}
	}
	p, err := ParsePlan("")
	if err != nil || len(p.Rules) != 0 {
		t.Fatalf("empty plan: %v %+v", err, p)
	}
}

// TestDrawConsumptionIsStable: appending a rule to a plan — one-shot
// or rate, at the same site or another — leaves every existing rule's
// per-site fault pattern unchanged. Each rule keeps its own occurrence
// counters and hashes its own draws, so an appended rule can add faults
// but never move one of an earlier rule's. (A shared generator stream
// fails this: an appended rate rule consumes draws between the
// existing rule's.)
func TestDrawConsumptionIsStable(t *testing.T) {
	bases := []Plan{
		{Seed: 3, Rules: []Rule{{Op: OpTransfer, Rate: 0.25}}},
		{Seed: 5, Rules: []Rule{
			{Op: OpTransfer, Site: "dma", Rate: 0.4, Count: 5},
			{Op: OpTransfer, Site: "rt_1", After: 3, Count: 2},
		}},
		{Seed: 8, Rules: []Rule{
			{Op: OpTransfer, After: 1, Count: 1},
			{Op: OpTransfer, Rate: 0.1},
		}},
	}
	appended := []Rule{
		{Op: OpTransfer, Count: 1},                             // one-shot, every site
		{Op: OpTransfer, Site: "dma", Count: 1},                // one-shot, same site
		{Op: OpTransfer, Site: "mem-rsp", After: 2, Count: -1}, // persistent, other site
		{Op: OpTransfer, Rate: 0.5},                            // rate, every site
		{Op: OpTransfer, Site: "dma", Rate: 0.3},               // rate, same site
		{Op: OpTransfer, Site: "mem-rsp", Rate: 0.7, Count: 3}, // rate, other site
	}
	// pattern drives one fixed interleaving of transfers over three
	// planes (primary sites) and three endpoint tiles, and records per
	// check which of the first nBase rules the fault names — -1 when
	// none of them fired.
	pattern := func(plan Plan, nBase int) []int {
		in, err := New(plan)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		planes := []string{"dma", "mem-rsp", "interrupt"}
		out := make([]int, 0, 300)
		for i := 0; i < 300; i++ {
			plane := planes[rng.Intn(len(planes))]
			tile := fmt.Sprintf("rt_%d", rng.Intn(3))
			rule := -1
			if f, ok := As(in.Check(OpTransfer, plane, tile)); ok && f.Rule < nBase {
				rule = f.Rule
			}
			out = append(out, rule)
		}
		return out
	}
	for bi, base := range bases {
		want := pattern(base, len(base.Rules))
		for _, extra := range appended {
			plan := base
			plan.Rules = append(append([]Rule(nil), base.Rules...), extra)
			got := pattern(plan, len(base.Rules))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("base %d + %s: check %d names rule %d, without the appended rule %d", bi, extra, i, got[i], want[i])
				}
			}
		}
	}
}

// outcomeMap records, for a sequence of per-site checks, which (site,
// occurrence) pairs faulted.
type outcomeMap map[string]bool

// driveSites runs nPerSite checks of op at every site, interleaving
// sites in the order perm yields, and returns the fault outcomes keyed
// by site/occurrence. Per-site order is fixed (occurrence 0,1,2,...) —
// the serialization a flow job or the runtime's event order gives each
// site — while cross-site interleaving is arbitrary.
func driveSites(t *testing.T, plan Plan, op Op, sites []string, nPerSite int, rng *rand.Rand) outcomeMap {
	t.Helper()
	in, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	next := make(map[string]int, len(sites))
	var order []string
	for _, s := range sites {
		for i := 0; i < nPerSite; i++ {
			order = append(order, s)
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	out := make(outcomeMap)
	for _, s := range order {
		out[fmt.Sprintf("%s/%d", s, next[s])] = in.Check(op, s) != nil
		next[s]++
	}
	return out
}

// TestOrderIndependence: for deterministic and rate rules alike, the
// set of faulted (site, occurrence) pairs is identical for every
// cross-site interleaving — the property that keeps CAD fault
// injection byte-identical for any worker count and runtime faults
// independent of how tiles' events interleave.
func TestOrderIndependence(t *testing.T) {
	plans := []Plan{
		{Rules: []Rule{{Op: OpCADSynth, Count: 1}}},
		{Rules: []Rule{{Op: OpCADImpl, Site: "rt_1", After: 1, Count: 2}}},
		{Seed: 7, Rules: []Rule{{Op: OpCADSynth, Rate: 0.5}}},
		{Seed: 99, Rules: []Rule{{Op: OpCADBitgen, Rate: 0.3, Count: 2}, {Op: OpCADBitgen, Site: "full", Count: -1}}},
		{Seed: 4, Rules: []Rule{{Op: OpICAP, Rate: 0.4}, {Op: OpICAP, Site: "rt_2", Count: 1}}},
	}
	sites := []string{"rt_1", "rt_2", "static", "full"}
	for pi, plan := range plans {
		op := plan.Rules[0].Op
		var baseline outcomeMap
		for trial := 0; trial < 10; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)))
			out := driveSites(t, plan, op, sites, 6, rng)
			if trial == 0 {
				baseline = out
				continue
			}
			for k, v := range out {
				if baseline[k] != v {
					t.Fatalf("plan %d trial %d: outcome at %s is %v, baseline says %v", pi, trial, k, v, baseline[k])
				}
			}
		}
	}
}

// TestConcurrentDeterminism: checks arriving from many goroutines
// (per-site serialized, as the flow guarantees) produce the same
// outcome set as a single-threaded run.
func TestConcurrentDeterminism(t *testing.T) {
	plan := Plan{Seed: 42, Rules: []Rule{
		{Op: OpCADSynth, Rate: 0.4},
		{Op: OpCADSynth, Site: "rt_2", After: 2, Count: -1},
	}}
	sites := []string{"rt_1", "rt_2", "rt_3", "static"}
	const nPerSite = 50

	reference := driveSites(t, plan, OpCADSynth, sites, nPerSite, rand.New(rand.NewSource(1)))

	for trial := 0; trial < 5; trial++ {
		in, err := New(plan)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		got := make(outcomeMap)
		var wg sync.WaitGroup
		for _, s := range sites {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < nPerSite; i++ {
					err := in.Check(OpCADSynth, s)
					mu.Lock()
					got[fmt.Sprintf("%s/%d", s, i)] = err != nil
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		for k, v := range got {
			if reference[k] != v {
				t.Fatalf("trial %d: concurrent outcome at %s is %v, single-threaded reference says %v", trial, k, v, reference[k])
			}
		}
	}
}

// TestStableInjectorPerSiteWindows: a site-less deterministic rule fires
// its window independently at every primary site — the documented
// semantics for every op.
func TestStableInjectorPerSiteWindows(t *testing.T) {
	in, err := New(Plan{Rules: []Rule{{Op: OpCADSynth, After: 1, Count: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range []string{"a", "b"} {
		if err := in.Check(OpCADSynth, site); err != nil {
			t.Fatalf("site %s occurrence 0 faulted inside the After window", site)
		}
		if err := in.Check(OpCADSynth, site); err == nil {
			t.Fatalf("site %s occurrence 1 did not fault", site)
		}
		if err := in.Check(OpCADSynth, site); err != nil {
			t.Fatalf("site %s occurrence 2 faulted past the Count window", site)
		}
	}
	if got := in.Injected(); got != 2 {
		t.Fatalf("injected %d faults, want 2 (one per site)", got)
	}
	if in.Check(OpCADBitgen, "a") != nil {
		t.Fatal("synth rule hit a bitgen operation")
	}
}

// TestStableInjectorSiteRuleMatchesSecondarySites: a rule naming a
// secondary site (the module name Synthesize appends) still matches,
// but counters stay keyed on the primary site, which labels the fault.
func TestStableInjectorSiteRuleMatchesSecondarySites(t *testing.T) {
	in, err := New(Plan{Rules: []Rule{{Op: OpCADSynth, Site: "conv2d_rm", Count: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	err1 := in.Check(OpCADSynth, "rt_1", "conv2d_rm")
	err2 := in.Check(OpCADSynth, "rt_2", "conv2d_rm")
	if err1 == nil || err2 == nil {
		t.Fatalf("module-site rule should fault the first synthesis at each hosting partition: got %v, %v", err1, err2)
	}
	f, ok := As(err1)
	if !ok {
		t.Fatalf("injected error is not a Fault: %v", err1)
	}
	if f.Site != "rt_1" {
		t.Fatalf("fault labeled with site %q, want the primary site rt_1", f.Site)
	}
	if err := in.Check(OpCADSynth, "rt_1", "conv2d_rm"); err != nil {
		t.Fatalf("rt_1's second synthesis faulted past count=1: %v", err)
	}
}

// TestStableInjectorRateSeedReproducible: the same seed reproduces the
// same draws; flipping the seed changes at least one outcome over a
// long stream (overwhelmingly likely at rate 0.5).
func TestStableInjectorRateSeedReproducible(t *testing.T) {
	run := func(seed uint64) []bool {
		in, err := New(Plan{Seed: seed, Rules: []Rule{{Op: OpCADImpl, Rate: 0.5}}})
		if err != nil {
			t.Fatal(err)
		}
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, in.Check(OpCADImpl, "site") != nil)
		}
		return out
	}
	a, b, c := run(5), run(5), run(6)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at occurrence %d", i)
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 5 and 6 produced identical 64-draw streams")
	}
}

// TestStableInjectorRateCount: a rate rule stops after Count injections
// at each site; the cap does not leak across sites.
func TestStableInjectorRateCount(t *testing.T) {
	in, err := New(Plan{Seed: 1, Rules: []Rule{{Op: OpCADBitgen, Rate: 1.0, Count: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	faults := 0
	for i := 0; i < 10; i++ {
		if in.Check(OpCADBitgen, "x") != nil {
			faults++
		}
	}
	if faults != 2 {
		t.Fatalf("rate rule with count=2 injected %d faults at one site", faults)
	}
	if in.Check(OpCADBitgen, "y") == nil {
		t.Fatal("count cap leaked across sites: site y should still fault")
	}
}

// TestStableInjectorNilAndPlanCopy: a nil injector is inert, and New
// copies the plan's rules, so editing the caller's plan afterwards does
// not change what the injector does.
func TestStableInjectorNilAndPlanCopy(t *testing.T) {
	var nilIn *Injector
	if nilIn.Check(OpCADSynth, "x") != nil || nilIn.Injected() != 0 {
		t.Fatal("nil injector is not inert")
	}
	plan := Plan{Rules: []Rule{{Op: OpCADDRC, Count: 1}}}
	in, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	plan.Rules[0].Count = -1
	if in.Check(OpCADDRC, "x") == nil {
		t.Fatal("first drc check did not fault")
	}
	if in.Check(OpCADDRC, "x") != nil {
		t.Fatal("injector aliases the caller's rules: count=1 became persistent")
	}
}

// TestCADOpsParse: the five CAD ops round-trip through ParseOp/String
// and the shared plan grammar.
func TestCADOpsParse(t *testing.T) {
	for _, op := range []Op{OpCADSynth, OpCADFloorplan, OpCADImpl, OpCADBitgen, OpCADDRC} {
		got, err := ParseOp(op.String())
		if err != nil {
			t.Fatalf("ParseOp(%q): %v", op.String(), err)
		}
		if got != op {
			t.Fatalf("ParseOp(%q) = %v, want %v", op.String(), got, op)
		}
	}
	plan, err := ParsePlan("seed=9,synth@rt_1:count=1,impl=0.3,bitgen@rt_2:count=-1,drc@rt_1,floorplan:after=1")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 9 || len(plan.Rules) != 5 {
		t.Fatalf("parsed plan %+v", plan)
	}
	if _, err := New(*plan); err != nil {
		t.Fatal(err)
	}
}
