// Package faultinject is a deterministic, seed-driven fault-injection
// layer for the simulated hardware substrate and the CAD flow. A Plan
// names the operations that must fail — NoC transfers, decoupler engage
// and disengage, ICAP programming, bitstream fetch corruption, kernel
// execution, configuration-memory upsets, and the flow's synthesis,
// floorplanning, implementation, bitstream-generation and DRC steps —
// either at exact occurrence indices (deterministic rules) or at a
// seeded probability per occurrence (rate rules).
//
// One Injector serves every operation, and its outcome is
// order-independent: occurrences are counted per (rule, primary site)
// and rate draws are a pure hash of (seed, rule, site, occurrence). The
// same plan against the same per-site operation sequences injects the
// same faults however the sites interleave — across the flow's worker
// pool or across tiles in the runtime's event order — and appending a
// rule to a plan never changes where the existing rules fire. That is
// what makes error-path behaviour testable at all: a failure you cannot
// replay is a failure you cannot regression-test.
//
// The package is dependency-free by design; each layer (internal/reconfig
// for the runtime and its NoC, internal/vivado for the CAD tool) adapts
// its own operations onto Injector.Check sites.
package faultinject

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
)

// Op identifies one class of injectable operation.
type Op int

const (
	// OpTransfer is a NoC packet transfer (any plane; rules select a
	// plane or endpoint tile through their site).
	OpTransfer Op = iota
	// OpDecouple is the decoupler engaging before reconfiguration.
	OpDecouple
	// OpRecouple is the decoupler disengaging after reconfiguration.
	OpRecouple
	// OpICAP is ICAP programming of a fetched bitstream.
	OpICAP
	// OpFetchCRC corrupts a bitstream image during the DMA fetch; the
	// manager's CRC verification catches it before the ICAP does.
	OpFetchCRC
	// OpKernel is accelerator kernel execution on a tile.
	OpKernel
	// OpCADSynth is a (simulated) CAD synthesis run in the compile-time
	// flow. CAD operations are checked through vivado.FaultHook.
	OpCADSynth
	// OpCADFloorplan is the floorplanning step of the flow.
	OpCADFloorplan
	// OpCADImpl is a place-and-route run (static pre-route, serial or
	// in-context).
	OpCADImpl
	// OpCADBitgen is bitstream generation (full or partial).
	OpCADBitgen
	// OpCADDRC is the DFX design rule check on a partition.
	OpCADDRC
	// OpSEU is a configuration-memory single-event upset: a radiation-
	// induced bit flip in a tile's resident configuration image. SEU
	// occurrences are the runtime's periodic per-tile config-memory
	// sample ticks (reconfig.Config.SEUCheckInterval apart in virtual
	// time), so each tile's upset schedule is a pure function of
	// (seed, rule, tile, tick) — never of what other tiles or operations
	// did first.
	OpSEU
	numOps
)

// String names the operation the way ParsePlan spells it.
func (o Op) String() string {
	switch o {
	case OpTransfer:
		return "transfer"
	case OpDecouple:
		return "decouple"
	case OpRecouple:
		return "recouple"
	case OpICAP:
		return "icap"
	case OpFetchCRC:
		return "crc"
	case OpKernel:
		return "kernel"
	case OpCADSynth:
		return "synth"
	case OpCADFloorplan:
		return "floorplan"
	case OpCADImpl:
		return "impl"
	case OpCADBitgen:
		return "bitgen"
	case OpCADDRC:
		return "drc"
	case OpSEU:
		return "seu"
	default:
		return fmt.Sprintf("op-%d", int(o))
	}
}

// ParseOp parses an operation name as spelled by Op.String.
func ParseOp(s string) (Op, error) {
	for o := Op(0); o < numOps; o++ {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("faultinject: unknown operation %q", s)
}

// Rule injects faults into one class of operation. A rule matches an
// operation when the Op is equal and Site is empty or equal to one of
// the sites the caller reports (plane name, tile name, accelerator
// name — whatever labels the layer attaches to the operation).
//
// Matching occurrences are numbered from zero at each primary site
// (see Injector). The first After matches never fault. A deterministic
// rule (Rate == 0) then faults the next Count matches (Count < 0 means
// every later match — a persistent, stuck-at fault). A rate rule
// (Rate > 0) faults each later match with probability Rate, drawn by
// hashing (plan seed, rule index, site, occurrence), stopping after
// Count injected faults at that site when Count > 0.
type Rule struct {
	Op    Op
	Site  string
	After int
	Count int
	Rate  float64
}

// String renders the rule in ParsePlan syntax.
func (r Rule) String() string {
	var b strings.Builder
	b.WriteString(r.Op.String())
	if r.Site != "" {
		fmt.Fprintf(&b, "@%s", r.Site)
	}
	if r.Rate > 0 {
		fmt.Fprintf(&b, "=%g", r.Rate)
	}
	if r.After > 0 {
		fmt.Fprintf(&b, ":after=%d", r.After)
	}
	if r.Rate > 0 && r.Count != 0 || r.Rate == 0 && r.Count != 1 {
		fmt.Fprintf(&b, ":count=%d", r.Count)
	}
	return b.String()
}

func (r Rule) validate() error {
	if r.Op < 0 || r.Op >= numOps {
		return fmt.Errorf("faultinject: rule %s: unknown op", r)
	}
	if r.After < 0 {
		return fmt.Errorf("faultinject: rule %s: negative after", r)
	}
	if r.Rate < 0 || r.Rate > 1 {
		return fmt.Errorf("faultinject: rule %s: rate %g outside [0,1]", r, r.Rate)
	}
	if r.Rate == 0 && r.Count == 0 {
		// A zero-rate, zero-count rule can never fire. Spell out the fix
		// for the seu op, where the dead rule is an easy typo
		// ("seu@t0=0" instead of "seu@t0=0.01").
		if r.Op == OpSEU {
			return fmt.Errorf("faultinject: rule %s: seu rule with zero rate and no count injects no upsets; give it a rate (seu@t0=0.01) or a count (seu@t0:count=3)", r)
		}
		return fmt.Errorf("faultinject: rule %s: zero rate and no count — the rule never fires (set a rate or a count)", r)
	}
	return nil
}

// Plan is a reproducible fault schedule: a seed for the rate rules plus
// the rule list. The zero Plan injects nothing.
type Plan struct {
	Seed  uint64
	Rules []Rule
}

// Validate checks every rule.
func (p *Plan) Validate() error {
	for _, r := range p.Rules {
		if err := r.validate(); err != nil {
			return err
		}
	}
	return nil
}

// String renders the plan in ParsePlan syntax.
func (p *Plan) String() string {
	parts := make([]string, 0, len(p.Rules)+1)
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	for _, r := range p.Rules {
		parts = append(parts, r.String())
	}
	return strings.Join(parts, ",")
}

// Fault is the error an injected failure surfaces as. Layers propagate
// it unwrapped so callers can recognize injected faults with As.
type Fault struct {
	// Op and Site identify the faulted operation.
	Op   Op
	Site string
	// Seq is the 1-based ordinal of this fault among those its rule
	// injected at its site.
	Seq int
	// Rule is the index of the plan rule that fired.
	Rule int
}

// Error implements error.
func (f *Fault) Error() string {
	site := f.Site
	if site == "" {
		site = "?"
	}
	return fmt.Sprintf("faultinject: injected %s fault at %s (fault #%d, rule %d)", f.Op, site, f.Seq, f.Rule)
}

// As reports whether err is (or wraps) an injected fault.
func As(err error) (*Fault, bool) {
	var f *Fault
	ok := errors.As(err, &f)
	return f, ok
}

// Injector evaluates a plan against operations reported in any order,
// from one goroutine or many. Its outcome is order-independent by
// construction:
//
//   - occurrence counters are kept per (rule, primary site), where the
//     primary site is the first site the caller reports: the plane for
//     transfer, the tile for decouple, recouple, icap, crc and seu, the
//     accelerator for kernel, and the job's partition, module or design
//     for the CAD ops (the flow labels every CAD job with a unique
//     primary site). Operations at one site are serialized by whoever
//     owns it — the job in the flow, the event order in the runtime — so
//     each counter advances deterministically however sites interleave.
//   - rate-rule draws are a pure function of (seed, rule, site,
//     occurrence) rather than positions in a shared generator stream,
//     so a draw's outcome cannot depend on which other sites were
//     checked first, nor on how many other rules the plan holds.
//
// The semantic consequence, documented in ParsePlan: a rule's
// After/Count window applies independently at each primary site. A
// site-less rule like "synth:count=1" fails the first synthesis of
// every module, and "icap:count=1" the first ICAP program at every
// tile — "globally first" is not well-defined under concurrency.
type Injector struct {
	plan Plan
	// ops has bit o set when some rule targets Op o: a check of any other
	// op (every NoC transfer under an seu-only plan, say) returns
	// without taking the lock.
	ops uint32

	mu       sync.Mutex
	matches  map[ruleSite]int
	fired    map[ruleSite]int
	injected int
}

// ruleSite keys the per-(rule, primary-site) occurrence counters.
type ruleSite struct {
	rule int
	site string
}

// New builds an injector for the plan.
func New(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	rules := make([]Rule, len(plan.Rules))
	copy(rules, plan.Rules)
	plan.Rules = rules
	in := &Injector{
		plan:    plan,
		matches: make(map[ruleSite]int),
		fired:   make(map[ruleSite]int),
	}
	for _, r := range rules {
		in.ops |= 1 << r.Op
	}
	return in, nil
}

// Check reports one occurrence of op at the given sites and returns the
// fault to inject, or nil. The first listed site is the primary site:
// it keys the occurrence counters and labels the fault. Every matching
// rule advances its own counters whether or not an earlier rule fired,
// so each rule's fault pattern is independent of the others'.
func (in *Injector) Check(op Op, sites ...string) error {
	if in == nil || in.ops&(1<<op) == 0 {
		return nil
	}
	primary := firstSite(sites)
	in.mu.Lock()
	defer in.mu.Unlock()
	var fault *Fault
	for ri := range in.plan.Rules {
		r := &in.plan.Rules[ri]
		if r.Op != op || !siteMatches(r.Site, sites) {
			continue
		}
		k := ruleSite{rule: ri, site: primary}
		n := in.matches[k]
		in.matches[k]++
		if n < r.After {
			continue
		}
		if r.Rate > 0 {
			if r.Count > 0 && in.fired[k] >= r.Count {
				continue
			}
			if in.draw(ri, primary, n) >= r.Rate {
				continue
			}
		} else if r.Count >= 0 && n >= r.After+r.Count {
			continue
		}
		in.fired[k]++
		if fault == nil {
			in.injected++
			fault = &Fault{Op: op, Site: primary, Seq: in.fired[k], Rule: ri}
		}
	}
	if fault == nil {
		return nil
	}
	return fault
}

// Injected returns the total number of faults delivered so far.
func (in *Injector) Injected() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected
}

// draw returns a uniform float64 in [0,1) that depends only on the
// plan seed, the rule index, the site and the occurrence index — never
// on how many draws other sites or rules consumed first.
func (in *Injector) draw(rule int, site string, occurrence int) float64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], in.plan.Seed)
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(rule))
	h.Write(buf[:])
	h.Write([]byte(site))
	h.Write([]byte{0xff})
	binary.LittleEndian.PutUint64(buf[:], uint64(occurrence))
	h.Write(buf[:])
	s := splitmix64(h.Sum64())
	return float64(s.next()>>11) / float64(1<<53)
}

func siteMatches(want string, sites []string) bool {
	if want == "" {
		return true
	}
	for _, s := range sites {
		if s == want {
			return true
		}
	}
	return false
}

func firstSite(sites []string) string {
	if len(sites) == 0 {
		return ""
	}
	return sites[0]
}

// splitmix64 is the same tiny deterministic mixer the bitstream
// generator uses; draw runs one step of it over the hashed key. No
// math/rand dependency, so injected fault sequences are reproducible
// across Go versions.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
