// Command perfbench is the repository's benchmark. It runs one seeded
// workload in-process through the public entry points of the flow
// engine, the flow daemon and the runtime simulator, checks every
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of standard output. run.sh builds
// it from source and runs it from the repository root:
//
//	bash perfbench/run.sh --workload flow-iterate --seed 1 --seconds 40 --trace 0
//
// README.md gives each workload's rationale and the metric table.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"
)

// workload names the leg a run is about. Every run drives all three
// legs, so every workload prints every metric: the primary leg runs
// first, at full length, and sets alloc_mb_per_op and peak_rss_mb; the
// other legs follow at their fixed probe lengths, the serve leg last.
// The sim leg is never primary: it is the cheapest leg, and at its
// probe length its figures are as steady as the others'.
type workload struct {
	name    string
	primary string // "flow" or "serve"
}

var workloads = []workload{
	{"flow-iterate", "flow"},
	{"serve-mix", "serve"},
}

// Leg lengths. The primary leg scales with --seconds, calibrated on a
// 2-CPU host so a run takes roughly the requested time. Run length is a
// number of operations, not a deadline, so counts and modelled figures
// repeat exactly for a given seed and --seconds.
const (
	flowRoundsPerS   = 0.125 // one round = 8 visits = 32 RunPRESP calls, ~3 s
	serveRoundsPerS  = 0.075 // one round = 48 jobs, ~6 s warm; the warm-up round comes on top
	probeFlowRounds  = 4
	probeServeRounds = 3
	simBatches       = 48 // one batch = 6 frames on each of 4 runtimes, ~0.15 s
	setupRepeats     = 9
	flowWorkers      = 2 // scheduler pool of each flow run: the host's CPU count
)

// config is one benchmark invocation.
type config struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
	workers  int
}

// workDir holds everything a run writes: scratch caches and job state
// (removed when the run ends) and traces. It lies inside the checkout
// and run.sh builds into it too.
const workDir = ".bench_build"

// legSizes returns the flow rounds and the timed serve rounds of a
// run. The serve leg times at least three rounds (144 jobs), so its p90
// rests on at least ten samples beyond it.
func legSizes(cfg config) (flowRounds, serveRounds int) {
	flowRounds, serveRounds = probeFlowRounds, probeServeRounds
	s := float64(cfg.seconds)
	switch cfg.workload.primary {
	case "flow":
		flowRounds = int(math.Max(probeFlowRounds, math.Round(s*flowRoundsPerS)))
	case "serve":
		serveRounds = int(math.Max(probeServeRounds, math.Round(s*serveRoundsPerS)))
	}
	return flowRounds, serveRounds
}

type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

// opCounter hands out operation ids for spans.
type opCounter struct{ n atomic.Int64 }

func (c *opCounter) next() int64 { return c.n.Add(1) }

// result is everything one run measured.
type result struct {
	m         metrics
	attempted int
	failed    int
	failures  []string
	notes     []string // human-readable lines printed before the result
	tr        *tracer
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errChecksFailed is returned, after the result line is printed, when
// any output check failed, so that a wrong result fails the run.
var errChecksFailed = errors.New("output checks failed")

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: flow-iterate or serve-mix")
	seed := fs.Int64("seed", 1, "input generator seed")
	seconds := fs.Int("seconds", 40, "nominal run length; sets the operation count")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, workers: flowWorkers}
	for _, w := range workloads {
		if w.name == *name {
			cfg.workload = w
		}
	}
	switch {
	case cfg.workload.name == "":
		return cfg, fmt.Errorf("unknown workload %q", *name)
	case *seconds < 1:
		return cfg, fmt.Errorf("--seconds must be >= 1, got %d", *seconds)
	case *trace != 0 && *trace != 1:
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	return cfg, nil
}

// run executes one invocation and prints its report to w.
func run(cfg config, w io.Writer) error {
	if _, err := os.Stat("go.mod"); err != nil {
		return errors.New("run from the repository root: the benchmark measures the code next to it")
	}
	bf, err := loadBenchFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	defs := bf.EndToEnd
	if cfg.trace {
		defs = bf.PerLayer
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	res, err := measure(context.Background(), cfg, tmp)
	if err != nil {
		return err
	}
	if res.tr != nil {
		dir := filepath.Join(workDir, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload.name, cfg.seed))
		if err := res.tr.write(path); err != nil {
			return err
		}
		res.notes = append(res.notes, fmt.Sprintf("trace: %d spans written to %s", res.tr.len(), path))
	}
	if err := report(cfg, defs, res, w); err != nil {
		return err
	}
	if res.failed > 0 {
		return errChecksFailed
	}
	return nil
}

// inputs are a run's generated inputs; only these reach the program.
type inputs struct {
	visits  []flowVisit
	jobs    []serveSpec
	batches []simBatch
}

func genInputs(cfg config) inputs {
	rng := rand.New(rand.NewSource(cfg.seed))
	flowRounds, serveRounds := legSizes(cfg)
	return inputs{
		visits:  genFlowVisits(rng, flowRounds),
		jobs:    genServeJobs(rng, serveWarmupRounds+serveRounds),
		batches: genSimBatches(rng, simBatches),
	}
}

// rig is one set-up of every leg: the elaborated flow designs, the sim
// runtimes with their rendered bitstreams and a booted daemon.
type rig struct {
	in  *flowInputs
	rts []*simRuntime
	srv *serveRig
}

func setup(ctx context.Context, cfg config, in inputs, dir string, tr *tracer) (*rig, error) {
	r := &rig{}
	var err error
	if r.in, err = setupFlow(in.visits, tr); err != nil {
		return nil, fmt.Errorf("flow set-up: %w", err)
	}
	if r.rts, err = setupSim(ctx, cfg.seed, cfg.workers, tr); err != nil {
		return nil, fmt.Errorf("sim set-up: %w", err)
	}
	if r.srv, err = bootServer(dir); err != nil {
		return nil, fmt.Errorf("server set-up: %w", err)
	}
	return r, nil
}

// legsOn builds the three legs over r: the primary first, then the
// others with the serve leg last, so that no other leg runs beside the
// daemon's caches.
func legsOn(cfg config, in inputs, r *rig, tmp string, tr *tracer, s samples, ops *opCounter) []leg {
	all := map[string]leg{
		"flow":  newFlowLeg(r.in, cfg.workers, tmp, tr, s, ops),
		"serve": newServeLeg(r.srv, in.jobs, cfg.workers, tr, ops),
		"sim":   newSimLeg(r.rts, in.batches, tr, ops),
	}
	out := []leg{all[cfg.workload.primary]}
	for _, name := range []string{"flow", "sim", "serve"} {
		if name != cfg.workload.primary {
			out = append(out, all[name])
		}
	}
	return out
}

// measure sets the run up setupRepeats times and reports the median,
// then runs the legs one after another on the last set-up: the primary
// leg first, with the resident set sampled, then the other two. The
// daemon is shut down, and its caches released, as soon as the serve
// leg is done. Host-time figures are scaled to the nominal host by the
// calibration samples taken after each set-up and each leg step
// (hostclock.go). A traced run first runs the primary leg untraced on a
// set-up of its own, then every leg traced on a fresh one, so the
// tracing overhead is the difference between the two passes over the
// same inputs.
func measure(ctx context.Context, cfg config, tmp string) (*result, error) {
	in := genInputs(cfg)
	res := &result{m: metrics{}}
	if cfg.trace {
		res.tr = newTracer()
	}
	var r *rig
	var setups []float64
	var clock hostClock
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			if err := r.srv.close(); err != nil {
				return nil, err
			}
		}
		// Collect the previous set-up's garbage off the clock.
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = setup(ctx, cfg, in, filepath.Join(tmp, fmt.Sprintf("state-%d", i)), res.tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		clock.sample()
	}
	res.m.set("setup_s", median(setups)*clock.speed())
	res.notes = append(res.notes, fmt.Sprintf("set-up host speed %.3f; raw: setup_s %.4g", clock.speed(), median(setups)))

	var untraced *tally
	if cfg.trace {
		primary := legsOn(cfg, in, r, tmp, nil, samples{}, &opCounter{})[0]
		if err := runLeg(ctx, primary); err != nil {
			return nil, fmt.Errorf("untraced pass: %w", err)
		}
		untraced = primary.counts()
		if err := r.srv.close(); err != nil {
			return nil, err
		}
		var err error
		if r, err = setup(ctx, cfg, in, filepath.Join(tmp, "state-traced"), nil); err != nil {
			return nil, err
		}
	}

	s := samples{}
	legs := legsOn(cfg, in, r, tmp, res.tr, s, &opCounter{})
	// peak_rss_mb is the primary leg's: the set-ups' garbage goes back to
	// the OS first.
	debug.FreeOSMemory()
	var walls []string
	runOne := func(l leg) error {
		t0 := time.Now()
		if err := runLeg(ctx, l); err != nil {
			return err
		}
		if l.name() == "serve" {
			if err := r.srv.close(); err != nil {
				return err
			}
			debug.FreeOSMemory()
		}
		walls = append(walls, fmt.Sprintf("%s %.1f s", l.name(), time.Since(t0).Seconds()))
		return nil
	}
	rss := startRSS()
	err := runOne(legs[0])
	peak := rss.Stop()
	for _, l := range legs[1:] {
		if err == nil {
			err = runOne(l)
		}
	}
	if cerr := r.srv.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res.m.set("peak_rss_mb", peak)
	res.notes = append(res.notes, "legs: "+strings.Join(walls, ", "))
	for i, l := range legs {
		t := l.counts()
		l.metrics(res.m)
		res.notes = append(res.notes, toNominal(l, res.m))
		res.attempted += t.attempts
		res.failed += t.failed
		res.failures = append(res.failures, t.failures...)
		res.notes = append(res.notes, fmt.Sprintf("%s leg: %d steps, %d ops, %.1f s timed",
			l.name(), l.steps(), t.attempts, t.opTime.Seconds()))
		if i == 0 {
			res.m.set("alloc_mb_per_op", t.allocMB/float64(l.opsForAlloc()))
			if cfg.trace {
				res.m.set("trace.overhead_ms_per_op",
					ms(t.opTime)/float64(t.attempts)-ms(untraced.opTime)/float64(untraced.attempts))
			}
		}
		if sl, ok := l.(*serveLeg); ok {
			res.notes = append(res.notes, sl.latencyNote())
		}
	}
	res.m.set("ok_ratio", 1-ratio(res.failed, res.attempted))
	if cfg.trace {
		if err := replayLayers(ctx, cfg, r, s, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// report prints the human-readable table, then the result line.
func report(cfg config, defs []metricDef, res *result, w io.Writer) error {
	out := map[string]any{}
	fmt.Fprintf(w, "%s seed=%d seconds=%d trace=%v: %d ops attempted, %d failed\n",
		cfg.workload.name, cfg.seed, cfg.seconds, cfg.trace, res.attempted, res.failed)
	for _, n := range res.notes {
		fmt.Fprintln(w, " ", n)
	}
	for _, f := range res.failures {
		fmt.Fprintln(w, "  failed:", f)
	}
	for _, d := range defs {
		v, ok := res.m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		arrow := "lower is better"
		if d.Better == "higher" {
			arrow = "higher is better"
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-6s %s\n", d.Name, v, d.Unit, arrow)
		out[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
