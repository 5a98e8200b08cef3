package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"presp/internal/experiments"
	"presp/internal/flow"
	"presp/internal/fpga"
	"presp/internal/obs"
	"presp/internal/socgen"
	"presp/internal/vivado"
)

// flowPresets are the CAD presets of Tables III–V the designer loop
// visits.
var flowPresets = []string{"SOC_1", "SOC_2", "SOC_3", "SOC_4", "SoC_A", "SoC_B", "SoC_C", "SoC_D"}

// flowPhases are the four RunPRESP calls of one visit, in order.
var flowPhases = []string{"cold", "warm", "edit", "restart"}

// flowVisit is one generated designer iteration: a preset and the
// partition whose content the edit phase re-costs.
type flowVisit struct {
	preset  string
	editIdx int
}

// flowInputs are the designs a flow leg runs, elaborated at set-up.
// Designs are read-only once built; each visit's edited design is its
// own elaboration.
type flowInputs struct {
	visits   []flowVisit
	base     map[string]*socgen.Design
	edited   []*socgen.Design // per visit
	editKeys []string         // per visit: preset and edited partition
}

// genFlowVisits draws rounds × 8 visits: every round visits each preset
// once, in a seeded order, and picks a seeded partition to edit. Whole
// rounds keep the multiset of designs per run independent of the seed,
// so phase medians compare across seeds.
func genFlowVisits(rng *rand.Rand, rounds int) []flowVisit {
	var out []flowVisit
	for r := 0; r < rounds; r++ {
		for _, i := range rng.Perm(len(flowPresets)) {
			out = append(out, flowVisit{preset: flowPresets[i], editIdx: rng.Intn(1 << 16)})
		}
	}
	return out
}

// setupFlow elaborates every base design and every visit's edited copy.
func setupFlow(visits []flowVisit, tr *tracer) (*flowInputs, error) {
	in := &flowInputs{visits: visits, base: map[string]*socgen.Design{}}
	elab := func(preset string) (*socgen.Design, error) {
		cfg, err := experiments.PresetConfig(preset)
		if err != nil {
			return nil, err
		}
		var d *socgen.Design
		tr.timed("socgen", "socgen.Elaborate", -1, 0, func() { d, err = experiments.ElaborateConfig(cfg) })
		return d, err
	}
	for _, p := range flowPresets {
		d, err := elab(p)
		if err != nil {
			return nil, err
		}
		in.base[p] = d
	}
	for _, v := range visits {
		d, err := elab(v.preset)
		if err != nil {
			return nil, err
		}
		rp, err := editPartition(d, v.editIdx)
		if err != nil {
			return nil, err
		}
		in.edited = append(in.edited, d)
		in.editKeys = append(in.editKeys, fmt.Sprintf("%s/rp%d", v.preset, rp))
	}
	return in, nil
}

// editPartition re-costs one partition's content in place, the
// one-kernel edit of the designer loop: pick draws among the
// partitions whose content is large enough to lose 64 LUTs. It returns
// the edited partition's index.
func editPartition(d *socgen.Design, pick int) (int, error) {
	var cand []int
	for i, rp := range d.RPs {
		if rp.Content != nil && rp.Content.Cost[fpga.LUT] >= 128 {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return 0, fmt.Errorf("%s: no partition to edit", d.Cfg.Name)
	}
	rp := cand[pick%len(cand)]
	d.RPs[rp].Content.Cost[fpga.LUT] -= 64
	return rp, nil
}

// crcSet fingerprints a run's bitstreams as sorted "name:crc" strings.
func crcSet(res *flow.Result) string {
	var s []string
	if res.FullBitstream != nil {
		s = append(s, fmt.Sprintf("%s:%08x", res.FullBitstream.Name, res.FullBitstream.CRC()))
	}
	for _, bs := range res.PartialBitstreams {
		if bs != nil {
			s = append(s, fmt.Sprintf("%s:%08x", bs.Name, bs.CRC()))
		}
	}
	sort.Strings(s)
	return strings.Join(s, ",")
}

// flowRun is one timed RunPRESP call. It keeps the figures the metrics
// need, not the result, whose bitstreams would otherwise pile up in the
// measured process.
type flowRun struct {
	preset string
	phase  string
	wall   time.Duration
	total  vivado.Minutes
	jobs   flow.JobStats
	// unspanned is the wall time no scheduler job span covers, and
	// stageHost the job-span time per stage (traced runs only).
	unspanned time.Duration
	stageHost map[string]time.Duration
}

// flowLeg is the designer loop: per visit a cold, warm, edit and
// restart RunPRESP call over a disk-tier directory. Every result's
// bitstream CRCs are checked against a cache-free run of the same
// design, computed once per design outside the timed calls. A traced
// leg also replays each visit's stage artifacts through the vivado
// caches.
type flowLeg struct {
	in      *flowInputs
	workers int
	tmp     string
	tr      *tracer
	s       samples
	ops     *opCounter
	refs    map[string]string // by preset, or preset and edited partition
	runs    []flowRun
	tally
}

func newFlowLeg(in *flowInputs, workers int, tmp string, tr *tracer, s samples, ops *opCounter) *flowLeg {
	return &flowLeg{in: in, workers: workers, tmp: tmp, tr: tr, s: s, ops: ops, refs: map[string]string{}}
}

func (l *flowLeg) name() string     { return "flow" }
func (l *flowLeg) steps() int       { return len(l.in.visits) }
func (l *flowLeg) counts() *tally   { return &l.tally }
func (l *flowLeg) opsForAlloc() int { return l.attempts }

// ref returns the CRC set of a cache-free run of d, whose content key
// names: equal keys mean equal designs, so each is run once.
func (l *flowLeg) ref(ctx context.Context, key string, d *socgen.Design) (string, error) {
	if s, ok := l.refs[key]; ok {
		return s, nil
	}
	res, err := flow.RunPRESP(ctx, d, flow.Options{Compress: true, Workers: l.workers})
	if err != nil {
		return "", fmt.Errorf("reference run of %s: %w", d.Cfg.Name, err)
	}
	l.refs[key] = crcSet(res)
	return l.refs[key], nil
}

// step runs visit vi.
func (l *flowLeg) step(ctx context.Context, vi int) error {
	v := l.in.visits[vi]
	dir := filepath.Join(l.tmp, fmt.Sprintf("flow-%d", vi))
	base, edited := l.in.base[v.preset], l.in.edited[vi]
	var cache *vivado.CheckpointCache
	var stage *vivado.StageCache
	for _, phase := range flowPhases {
		d, key := base, v.preset
		if phase == "edit" || phase == "restart" {
			d, key = edited, l.in.editKeys[vi]
		}
		if phase == "cold" || phase == "restart" {
			cache, stage = vivado.NewCheckpointCache(), vivado.NewStageCache()
		}
		opt := flow.Options{Compress: true, Workers: l.workers, Cache: cache, StageCache: stage, CacheDir: dir}
		op := l.ops.next()
		var observed time.Time
		if l.tr != nil {
			observed = time.Now()
			opt.Observer = obs.New()
		}
		id := l.tr.begin("flow", "flow.RunPRESP."+phase, -1, op)
		t0 := time.Now()
		res, err := flow.RunPRESP(ctx, d, opt)
		wall := time.Since(t0)
		l.tr.end(id)
		l.attempts++
		if err != nil {
			l.fail("%s %s: %v", v.preset, phase, err)
			continue
		}
		l.opTime += wall
		run := flowRun{preset: v.preset, phase: phase, wall: wall, total: res.Total, jobs: res.Jobs}
		if l.tr != nil {
			run.unspanned, run.stageHost = jobCoverage(opt.Observer, observed, t0, wall)
			l.tr.importJobSpans(opt.Observer, observed, id, op)
		}
		l.runs = append(l.runs, run)
		want, err := l.ref(ctx, key, d)
		if err != nil {
			return err
		}
		if got := crcSet(res); got != want {
			l.fail("%s %s: bitstream CRCs differ from a from-scratch run", v.preset, phase)
		}
	}
	if l.tr != nil {
		if err := replayArtifacts(dir, storeDir(l.tmp, vi), l.s); err != nil {
			return err
		}
	}
	return os.RemoveAll(dir)
}

// jobCoverage derives, from a flow run's job spans, the run's wall time
// that no job span covers and the host time per stage.
func jobCoverage(o *obs.Observer, observed, start time.Time, wall time.Duration) (time.Duration, map[string]time.Duration) {
	lo := int64(start.Sub(observed) / time.Microsecond)
	hi := lo + int64(wall/time.Microsecond)
	var ivs [][2]int64
	stage := map[string]time.Duration{}
	for _, ev := range o.Tracer().Events() {
		if ev.Phase != "X" || ev.Cat != "job" {
			continue
		}
		ivs = append(ivs, [2]int64{ev.TS, ev.TS + ev.Dur})
		name, _ := ev.Args["stage"].(string)
		stage[name] += time.Duration(ev.Dur) * time.Microsecond
	}
	unspanned := time.Duration(hi-lo-covered(ivs, lo, hi)) * time.Microsecond
	return unspanned, stage
}

// metrics derives the leg's end-to-end metrics and the flow and vivado
// per-layer metrics that come from the runs themselves.
func (l *flowLeg) metrics(m metrics) {
	byPhase := map[string]map[string][]float64{}
	for _, p := range flowPhases {
		byPhase[p] = map[string][]float64{}
	}
	var models, unspanned []float64
	var exec, skip, miss, hits, misses int
	stageHost := map[string][]float64{}
	for _, r := range l.runs {
		byPhase[r.phase][r.preset] = append(byPhase[r.phase][r.preset], ms(r.wall))
		if r.phase == "cold" || r.phase == "edit" {
			models = append(models, float64(r.total))
		}
		exec += r.jobs.Executed()
		skip += r.jobs.Skipped
		miss += r.jobs.StageCacheMisses
		hits += r.jobs.CacheHits
		misses += r.jobs.CacheMisses
		unspanned = append(unspanned, ms(r.unspanned))
		for _, st := range []string{"synth", "plan", "impl", "bitgen"} {
			stageHost[st] = append(stageHost[st], ms(r.stageHost[st]))
		}
	}
	for _, p := range flowPhases {
		m.set("flow_"+p+"_ms", geoMeanOfMedians(byPhase[p]))
	}
	m.set("flow_model_min", mean(models))
	m.set("flow.jobs_executed", float64(exec))
	m.set("flow.jobs_skipped", float64(skip))
	m.set("flow.skip_ratio", ratio(skip, exec+skip))
	m.set("vivado.ckpt_hit_ratio", ratio(hits, hits+misses))
	m.set("vivado.stage_hit_ratio", ratio(skip, skip+miss))
	m.set("flow.unspanned_ms", median(unspanned))
	// Means, not medians: most runs skip most stages, so a stage's
	// median host time is usually zero.
	m.set("flow.stage_host_ms.synth", mean(stageHost["synth"]))
	m.set("flow.stage_host_ms.floorplan", mean(stageHost["plan"]))
	m.set("flow.stage_host_ms.impl", mean(stageHost["impl"]))
	m.set("flow.stage_host_ms.bitgen", mean(stageHost["bitgen"]))
}
