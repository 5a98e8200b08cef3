// Cancellation and resume suite: a flow killed at any point must leak
// no goroutines, leave its caches consistent, and resume over the same
// cache directory to a byte-identical result.
package flow

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"presp/internal/accel"
	"presp/internal/leakcheck"
	"presp/internal/socgen"
	"presp/internal/vivado"
)

// TestSchedulerRandomCancelPoints: across random DAGs, worker counts
// and cancellation points, the scheduler never violates dependency
// order, never runs a job twice, always accounts every job as executed
// or cancelled, and always drains its pool.
func TestSchedulerRandomCancelPoints(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		g, rec, _, _ := randomDAG(rng, n, 0.1)
		k := rng.Intn(n + 1) // cancel after the k-th completion

		ctx, cancel := context.WithCancel(context.Background())
		done := 0
		stats, _, err := g.ExecuteCtx(ctx, ExecOptions{
			Workers: 1 + rng.Intn(8),
			OnJobDone: func(*Job, JobOutcome) {
				done++
				if done == k {
					cancel()
				}
			},
		})
		cancel()

		if rec.violation != "" {
			t.Fatalf("seed=%d: %s", seed, rec.violation)
		}
		for id, count := range rec.runs {
			if count > 1 {
				t.Fatalf("seed=%d: job %s ran %d times", seed, id, count)
			}
		}
		if got := stats.Executed() + stats.Cancelled; got != n {
			t.Fatalf("seed=%d: executed %d + cancelled %d != %d jobs", seed, stats.Executed(), stats.Cancelled, n)
		}
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("seed=%d: unexpected execution error: %v", seed, err)
		}
	}
	leakcheck.VerifyNone(t)
}

// countEntries counts the live disk-tier entries of one kind (".ckpt"
// synthesis checkpoints or ".art" stage artifacts) in a cache directory.
func countEntries(t *testing.T, dir, ext string) int {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+ext))
	if err != nil {
		t.Fatal(err)
	}
	return len(names)
}

// TestFlowKillAtEveryCachePrefix: interrupt a PR-ESP run over a cache
// directory after every possible number of completed jobs, then re-run
// with fresh in-memory caches over the same directory, as a new process
// resuming would. The re-run must produce a byte-identical result,
// reuse every checkpoint and stage artifact that reached disk before the
// interruption, and synthesize only what did not. A second leg repeats the kill
// under a fault plan: stage caching is off there, so only checkpoints
// carry over, and the resumed result must equal the uninterrupted
// faulty run.
func TestFlowKillAtEveryCachePrefix(t *testing.T) {
	cfg := socgen.SOC1()
	legs := []struct {
		name string
		opt  Options
	}{
		{"fault-free", Options{Compress: true, Workers: 4}},
		{"faulty", Options{
			Compress: true, Workers: 4, MaxJobRetries: 1, ErrorPolicy: Collect,
			FaultPlan: parsePlan(t, "seed=5,synth=0.4,bitgen=0.5,impl:count=1"),
		}},
	}
	for _, leg := range legs {
		run := func(ctx context.Context, dir string, heartbeat func(int, vivado.Minutes)) (*Result, error) {
			opt := leg.opt
			opt.Cache = vivado.NewCheckpointCache()
			opt.StageCache = vivado.NewStageCache()
			opt.CacheDir = dir
			opt.Heartbeat = heartbeat
			return RunPRESP(ctx, elaborate(t, cfg), opt)
		}
		ref, err := run(context.Background(), t.TempDir(), nil)
		if err != nil {
			t.Fatalf("%s: reference run: %v", leg.name, err)
		}
		refSig := resultSignature(ref)
		totalJobs := ref.Jobs.Executed()

		interrupted := 0
		for k := 1; k <= totalJobs; k++ {
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			_, runErr := run(ctx, dir, func(completed int, _ vivado.Minutes) {
				if completed == k {
					cancel()
				}
			})
			cancel()
			if runErr == nil {
				continue // cancellation landed after the last job
			}
			if !errors.Is(runErr, context.Canceled) {
				t.Fatalf("%s k=%d: interrupted run failed with %v, want context.Canceled", leg.name, k, runErr)
			}
			interrupted++
			ckpts, arts := countEntries(t, dir, ".ckpt"), countEntries(t, dir, ".art")

			res, err := run(context.Background(), dir, nil)
			if err != nil {
				t.Fatalf("%s k=%d: resumed run failed: %v", leg.name, k, err)
			}
			if sig := resultSignature(res); sig != refSig {
				t.Fatalf("%s k=%d: resumed result differs from uninterrupted run:\n--- resumed ---\n%s--- reference ---\n%s",
					leg.name, k, sig, refSig)
			}
			j := res.Jobs
			if j.CacheHits < ckpts {
				t.Errorf("%s k=%d: resumed run reused %d checkpoints, disk held %d .ckpt", leg.name, k, j.CacheHits, ckpts)
			}
			if leg.opt.FaultPlan != nil {
				// Stage caching is off under faults, and a synthesis the
				// plan failed never reached disk: only reuse is owed.
				continue
			}
			// Synthesis is paid exactly for the checkpoints the kill lost:
			// none once every checkpoint reached disk. (Whether it did by
			// completion k is timing: synthesis jobs still queued when the
			// cancellation lands observe it and never synthesize.)
			if j.CacheMisses != ref.Jobs.CacheMisses-ckpts {
				t.Errorf("%s k=%d: resumed run paid %d synthesis misses, want %d (%d distinct, %d on disk)",
					leg.name, k, j.CacheMisses, ref.Jobs.CacheMisses-ckpts, ref.Jobs.CacheMisses, ckpts)
			}
			if j.Skipped < arts || j.CacheHits+j.Skipped < k {
				t.Errorf("%s k=%d: resumed run reused %d checkpoints / skipped %d jobs; disk held %d .art after %d completions",
					leg.name, k, j.CacheHits, j.Skipped, arts, k)
			}
		}
		if interrupted == 0 {
			t.Fatalf("%s: no prefix interrupted the run", leg.name)
		}
	}
	leakcheck.VerifyNone(t)
}

// TestFlowCancelLeavesCacheConsistent: a shared cache that lived
// through a cancelled run still serves a clean run to the reference
// result.
func TestFlowCancelLeavesCacheConsistent(t *testing.T) {
	cfg := socgen.SOC2()
	ref, err := RunPRESP(context.Background(), elaborate(t, cfg), Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	refSig := resultSignature(ref)

	cache := vivado.NewCheckpointCache()
	for k := 1; k <= 4; k++ {
		ctx, cancel := context.WithCancel(context.Background())
		// Cancel mid-run from the progress heartbeat after k completions.
		_, runErr := RunPRESP(ctx, elaborate(t, cfg), Options{
			Compress: true, Cache: cache, Workers: runtime.NumCPU(),
			Heartbeat: func(completed int, _ vivado.Minutes) {
				if completed == k {
					cancel()
				}
			},
		})
		cancel()
		if runErr == nil {
			continue
		}
		res, err := RunPRESP(context.Background(), elaborate(t, cfg), Options{Compress: true, Cache: cache})
		if err != nil {
			t.Fatalf("k=%d: clean run after cancellation failed: %v", k, err)
		}
		if sig := resultSignature(res); sig != refSig {
			t.Fatalf("k=%d: cache corrupted by cancellation: result differs", k)
		}
	}
	leakcheck.VerifyNone(t)
}

// TestFlowTimeout: an expired whole-flow timeout surfaces as
// context.DeadlineExceeded before (or during) execution, for every
// entry point.
func TestFlowTimeout(t *testing.T) {
	runs := []struct {
		name string
		run  func(ctx context.Context, d *socgen.Design, opt Options) (*Result, error)
	}{
		{"presp", RunPRESP},
		{"standard-dfx", RunStandardDFX},
		{"monolithic", RunMonolithic},
	}
	for _, r := range runs {
		_, err := r.run(context.Background(), elaborate(t, socgen.SOC1()), Options{Timeout: 1})
		if err == nil {
			t.Fatalf("%s: 1ns timeout did not abort the flow", r.name)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: timeout error %v does not wrap DeadlineExceeded", r.name, err)
		}
	}
	leakcheck.VerifyNone(t)
}

// TestFlowPreCancelledContext: an already-cancelled context stops the
// run before any job.
func TestFlowPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunPRESP(ctx, elaborate(t, socgen.SOC1()), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestGenerateRuntimeBitstreamsCancel: the runtime bitstream generator
// honours its context too.
func TestGenerateRuntimeBitstreamsCancel(t *testing.T) {
	d := elaborate(t, socgen.SOC2())
	plan, err := FloorplanDesign(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	alloc := map[string][]string{}
	for _, rp := range d.RPs {
		alloc[rp.Name] = []string{"mac"}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GenerateRuntimeBitstreams(ctx, d, plan, alloc, accel.Default(), true, 2); err == nil {
		t.Fatal("cancelled context did not abort bitstream generation")
	}
	leakcheck.VerifyNone(t)
}

// TestNormalizeWorkers covers the centralized validation shared by the
// flow, the scheduler and the presp-flow CLI.
func TestNormalizeWorkers(t *testing.T) {
	if _, err := NormalizeWorkers(-1); err == nil {
		t.Fatal("negative worker count accepted")
	}
	n, err := NormalizeWorkers(0)
	if err != nil || n < 1 {
		t.Fatalf("NormalizeWorkers(0) = %d, %v", n, err)
	}
	n, err = NormalizeWorkers(7)
	if err != nil || n != 7 {
		t.Fatalf("NormalizeWorkers(7) = %d, %v", n, err)
	}
	if _, err := RunPRESP(context.Background(), elaborate(t, socgen.SOC1()), Options{Workers: -3}); err == nil {
		t.Fatal("flow accepted a negative worker count")
	}
}
