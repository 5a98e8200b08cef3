package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"presp/internal/accel"
	"presp/internal/bitstream"
	"presp/internal/experiments"
	"presp/internal/faultinject"
	"presp/internal/floorplan"
	"presp/internal/flow"
	"presp/internal/noc"
	"presp/internal/reconfig"
	"presp/internal/sim"
	"presp/internal/socgen"
	"presp/internal/wami"
)

const (
	simEdge     = 128 // frame edge in pixels, presp-sim's default
	simLKIters  = 1
	simFrames   = 6 // frames per batch; the first only initializes state
	seuScrubInt = 500 * time.Microsecond
)

// simConfig is one runtime the sim leg drives: a Table VI SoC, or
// SoC_Z under a seeded SEU plan with the readback scrubber on.
type simConfig struct {
	name string
	soc  string
	seu  bool
}

var simConfigs = []simConfig{
	{name: "SoC_X", soc: "SoC_X"},
	{name: "SoC_Y", soc: "SoC_Y"},
	{name: "SoC_Z", soc: "SoC_Z"},
	{name: "SoC_Z-seu", soc: "SoC_Z", seu: true},
}

// simBatch is one generated frame stream: every configuration
// processes the same batches, so one golden reference serves all four.
type simBatch struct {
	dx, dy  float64
	targets int
}

func genSimBatches(rng *rand.Rand, n int) []simBatch {
	out := make([]simBatch, n)
	for i := range out {
		out[i] = simBatch{dx: rng.Float64()*1.6 - 0.8, dy: rng.Float64()*1.6 - 0.8, targets: 1 + rng.Intn(4)}
	}
	return out
}

// simRuntime is one booted runtime with its bitstreams registered.
type simRuntime struct {
	cfg   simConfig
	rt    *reconfig.Runtime
	alloc wami.Allocation
	bss   map[string]map[string]*bitstream.Bitstream
}

// simSoC is one elaborated runtime SoC with its generated bitstreams.
type simSoC struct {
	d     *socgen.Design
	plan  *floorplan.Plan
	alloc wami.Allocation
	bss   map[string]map[string]*bitstream.Bitstream
}

// setupSim elaborates, floorplans and generates the runtime bitstreams
// of SoC_X, SoC_Y and SoC_Z — presp-sim's set-up — and boots one
// runtime per configuration.
func setupSim(ctx context.Context, seed int64, workers int, tr *tracer) ([]*simRuntime, error) {
	reg := accel.Default()
	if err := wami.AddTo(reg); err != nil {
		return nil, err
	}
	socs := map[string]*simSoC{}
	for _, c := range simConfigs {
		if socs[c.soc] != nil {
			continue
		}
		cfg, alloc, err := wami.RuntimeSoC(c.soc)
		if err != nil {
			return nil, err
		}
		s := &simSoC{alloc: alloc}
		tr.timed("socgen", "socgen.Elaborate", -1, 0, func() { s.d, err = experiments.ElaborateConfig(cfg) })
		if err != nil {
			return nil, err
		}
		tr.timed("floorplan", "floorplan.Plan", -1, 0, func() { s.plan, err = flow.FloorplanDesign(s.d, nil) })
		if err != nil {
			return nil, err
		}
		am := make(map[string][]string, len(alloc))
		for tile, idxs := range alloc {
			for _, idx := range idxs {
				am[tile] = append(am[tile], wami.Names[idx])
			}
		}
		tr.timed("bitstream", "flow.GenerateRuntimeBitstreams", -1, 0, func() {
			s.bss, err = flow.GenerateRuntimeBitstreams(ctx, s.d, s.plan, am, reg, true, workers)
		})
		if err != nil {
			return nil, err
		}
		socs[c.soc] = s
	}
	var out []*simRuntime
	for _, c := range simConfigs {
		s := socs[c.soc]
		rcfg := reconfig.DefaultConfig()
		if c.seu {
			plan, err := faultinject.ParsePlan(fmt.Sprintf("seed=%d,seu=0.01", seed))
			if err != nil {
				return nil, err
			}
			rcfg.FaultPlan, rcfg.ScrubInterval = plan, seuScrubInt
		}
		rt, err := reconfig.New(sim.NewEngine(), s.d, reg, s.plan, rcfg)
		if err != nil {
			return nil, err
		}
		for _, tile := range sortedKeys(s.bss) {
			for _, acc := range sortedKeys(s.bss[tile]) {
				if err := rt.RegisterBitstream(tile, acc, s.bss[tile][acc]); err != nil {
					return nil, err
				}
			}
		}
		out = append(out, &simRuntime{cfg: c, rt: rt, alloc: s.alloc, bss: s.bss})
	}
	return out, nil
}

// golden is the reference answer for one batch.
type golden struct {
	motion     []float64
	detections []int
}

// goldenRun computes a batch's reference answer from the software
// kernels the accelerators implement. Motion is wami.LucasKanade's
// estimate, as in wami.Pipeline. Change detection follows the
// runtime's documented order: it sees the frame warped by the estimate
// the last Lucas-Kanade iteration started from (with one iteration, the
// identity), where wami.Pipeline warps by the final estimate.
func goldenRun(b simBatch) (*golden, error) {
	pcfg := wami.DefaultPipelineConfig()
	src, err := wami.NewFrameSource(simEdge, b.dx, b.dy, b.targets)
	if err != nil {
		return nil, err
	}
	g := &golden{}
	var prev, bg *wami.Image
	for i := 0; i < simFrames; i++ {
		gray := wami.Grayscale(wami.Debayer(src.Next()))
		if prev == nil {
			prev, bg = gray, gray.Clone()
			g.motion = append(g.motion, 0)
			g.detections = append(g.detections, 0)
			continue
		}
		motion, _, err := wami.LucasKanade(prev, gray, simLKIters, pcfg.LKEpsilon)
		if err != nil {
			return nil, err
		}
		var mask *wami.Image
		mask, bg = wami.ChangeDetection(wami.Warp(gray, wami.Affine{}), bg, pcfg.CDThreshold, pcfg.CDAlpha)
		det := 0
		for _, v := range mask.Pix {
			if v != 0 {
				det++
			}
		}
		g.motion = append(g.motion, math.Hypot(motion[4], motion[5]))
		g.detections = append(g.detections, det)
		prev = gray
	}
	return g, nil
}

// checkGolden compares a runtime's per-frame results with the
// reference: motion to 1e-9 px, as the repository's
// hardware-versus-software test does, and detections exactly.
func checkGolden(rep *wami.RunReport, g *golden) error {
	for i := 1; i < len(rep.Frames); i++ {
		f := rep.Frames[i]
		if math.Abs(f.MotionErr-g.motion[i]) > 1e-9 {
			return fmt.Errorf("frame %d: motion %.9f, golden %.9f", i, f.MotionErr, g.motion[i])
		}
		if f.Detections != g.detections[i] {
			return fmt.Errorf("frame %d: %d detections, golden %d", i, f.Detections, g.detections[i])
		}
	}
	return nil
}

// simLeg processes the batches on every runtime, timing each
// ProcessFrames call on the host, and checks each batch against its
// golden reference outside the timed calls.
type simLeg struct {
	rts            []*simRuntime
	batches        []simBatch
	tr             *tracer
	ops            *opCounter
	framesPerHostS map[string][]float64 // per runtime, per ProcessFrames call
	sPerFrame      []float64            // per call, simulated
	jPerFrame      []float64            // per call, simulated
	frames         int
	tally
}

func newSimLeg(rts []*simRuntime, batches []simBatch, tr *tracer, ops *opCounter) *simLeg {
	return &simLeg{rts: rts, batches: batches, tr: tr, ops: ops, framesPerHostS: map[string][]float64{}}
}

func (l *simLeg) name() string     { return "sim" }
func (l *simLeg) steps() int       { return len(l.batches) }
func (l *simLeg) counts() *tally   { return &l.tally }
func (l *simLeg) opsForAlloc() int { return l.frames }

// step processes batch bi on every runtime.
func (l *simLeg) step(ctx context.Context, bi int) error {
	b := l.batches[bi]
	reps := make([]*wami.RunReport, len(l.rts))
	for ri, r := range l.rts {
		op := l.ops.next()
		l.attempts++
		pcfg := wami.DefaultPipelineConfig()
		pcfg.LKIterations = simLKIters
		runner, err := wami.NewRunner(r.rt, r.alloc, pcfg)
		if err != nil {
			return err
		}
		src, err := wami.NewFrameSource(simEdge, b.dx, b.dy, b.targets)
		if err != nil {
			return err
		}
		id := l.tr.begin("wami", "wami.ProcessFrames."+r.cfg.name, -1, op)
		t0 := time.Now()
		rep, err := runner.ProcessFrames(src, simFrames)
		dt := time.Since(t0)
		l.tr.end(id)
		if err != nil {
			l.fail("%s batch %d: %v", r.cfg.name, bi, err)
			continue
		}
		reps[ri] = rep
		l.frames += simFrames
		l.opTime += dt
		l.framesPerHostS[r.cfg.name] = append(l.framesPerHostS[r.cfg.name], float64(simFrames)/dt.Seconds())
		l.sPerFrame = append(l.sPerFrame, rep.TimePerFrame())
		l.jPerFrame = append(l.jPerFrame, rep.EnergyPerFrame())
	}
	g, err := goldenRun(b)
	if err != nil {
		return fmt.Errorf("golden batch %d: %w", bi, err)
	}
	for ri, rep := range reps {
		if rep == nil {
			continue
		}
		if err := checkGolden(rep, g); err != nil {
			l.fail("%s batch %d: %v", l.rts[ri].cfg.name, bi, err)
		}
	}
	return nil
}

// metrics derives the leg's end-to-end metrics and the reconfig and noc
// counters the runtimes keep themselves.
func (l *simLeg) metrics(m metrics) {
	m.set("sim_frames_per_host_s", geoMeanOfMedians(l.framesPerHostS))
	m.set("sim_s_per_frame", mean(l.sPerFrame))
	m.set("sim_j_per_frame", mean(l.jPerFrame))
	var reconfigs, retries, repaired int
	var virt time.Duration
	flits := map[noc.Plane]int64{}
	for _, r := range l.rts {
		st := r.rt.Stats()
		reconfigs += st.Reconfigurations
		retries += st.Retries
		virt += st.ReconfigTime
		repaired += r.rt.ScrubStats().Repaired
		for _, p := range nocPlanes {
			flits[p] += int64(r.rt.Network().PlaneStats(p).TotalFlits)
		}
	}
	m.set("reconfig.reconfigs", float64(reconfigs))
	m.set("reconfig.retries", float64(retries))
	m.set("reconfig.scrub_repaired", float64(repaired))
	m.set("reconfig.virtual_ms_per_reconfig", ms(virt)/float64(reconfigs))
	for _, p := range nocPlanes {
		m.set("noc.flits."+p.String(), float64(flits[p]))
	}
}

// nocPlanes are the planes the WAMI runtimes carry traffic on.
var nocPlanes = []noc.Plane{noc.PlaneMemReq, noc.PlaneMemRsp, noc.PlaneConfig, noc.PlaneDMA}
