// Job-graph scheduler: the flow's CAD steps — out-of-context synthesis,
// floorplanning, per-partition implementation, bitstream generation —
// form a dependency DAG that a bounded pool of worker goroutines
// executes concurrently. Each job carries its *simulated* CAD runtime
// (vivado.Minutes), so the reported wall times stay the analytic values
// of the cost model whatever the worker count; only the real CPU time
// spent simulating shrinks on multicore hosts.
//
// The scheduler is fault-tolerant and cancellable: failed jobs are
// retried up to a cap with exponential *virtual-time* backoff (the
// penalty is accounted in modelled minutes, never slept for, so
// published cost-model numbers stay byte-identical for any worker
// count), a per-job deadline in modelled minutes fails oversized jobs
// deterministically, and a cancelled context drains the pool at the
// next job boundary without leaking goroutines. Reported errors are
// selected deterministically (earliest job in graph-insertion order),
// so results are observationally identical for any worker count.
package flow

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"presp/internal/obs"
	"presp/internal/vivado"
)

// Stage labels a job with the flow stage it belongs to, for the
// per-stage counters Result reports.
type Stage int

const (
	// StageSynth is (out-of-context) synthesis.
	StageSynth Stage = iota
	// StagePlan covers floorplanning, DFX design rule checks and script
	// generation.
	StagePlan
	// StageImpl is place-and-route (serial, static pre-route or
	// in-context).
	StageImpl
	// StageBitgen is bitstream generation.
	StageBitgen
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageSynth:
		return "synth"
	case StagePlan:
		return "plan"
	case StageImpl:
		return "impl"
	case StageBitgen:
		return "bitgen"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// NormalizeWorkers is the single validation point for worker-pool
// sizes, shared by flow.Options, the scheduler and presp-flow's
// -workers flag: negative counts are rejected, zero selects
// runtime.GOMAXPROCS(0).
func NormalizeWorkers(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("flow: worker count %d is negative (0 selects all CPUs)", n)
	}
	if n == 0 {
		return runtime.GOMAXPROCS(0), nil
	}
	return n, nil
}

// Job is one unit of CAD work in the dependency graph. Run returns the
// job's simulated duration; the scheduler only accumulates it — wall-time
// aggregation (max over parallel instances, contention scaling) stays
// with the flow, which knows the paper's timing model.
type Job struct {
	// ID names the job uniquely within its graph.
	ID string
	// Stage classifies the job for Result accounting.
	Stage Stage
	// Deps lists job IDs that must complete successfully first.
	Deps []string
	// Run performs the work. It must honour ctx promptly: the scheduler
	// passes the execution context so cancelled flows stop mid-graph.
	Run func(ctx context.Context) (vivado.Minutes, error)
	// Probe, when set, asks the stage-artifact cache before Run: a hit
	// returns the cached job's modelled minutes (the probe is expected to
	// publish the cached result as a side effect) and the scheduler skips
	// Run entirely, counting the job as Skipped rather than executed. A
	// miss falls through to Run. Probes run on worker goroutines and must
	// be safe to call concurrently with other jobs' probes.
	Probe func() (vivado.Minutes, bool)
	// order is the insertion index, the deterministic error-priority key.
	order int
}

// Graph is a job dependency DAG under construction.
type Graph struct {
	jobs map[string]*Job
	seq  []*Job
}

// NewGraph returns an empty job graph.
func NewGraph() *Graph {
	return &Graph{jobs: make(map[string]*Job)}
}

// Add registers a job. Duplicate IDs are an error; dependencies are
// validated at Execute time so jobs can be added in any order.
func (g *Graph) Add(id string, stage Stage, deps []string, run func(ctx context.Context) (vivado.Minutes, error)) error {
	if id == "" {
		return fmt.Errorf("flow: job with empty ID")
	}
	if run == nil {
		return fmt.Errorf("flow: job %q has no work function", id)
	}
	if _, dup := g.jobs[id]; dup {
		return fmt.Errorf("flow: duplicate job %q", id)
	}
	j := &Job{
		ID:    id,
		Stage: stage,
		Deps:  append([]string(nil), deps...),
		Run:   run,
		order: len(g.seq),
	}
	g.jobs[id] = j
	g.seq = append(g.seq, j)
	return nil
}

// AddCached registers a job with a stage-artifact cache probe: before
// Run is dispatched, probe is consulted, and a hit skips the job (see
// Job.Probe). A nil probe makes AddCached equivalent to Add.
func (g *Graph) AddCached(id string, stage Stage, deps []string, probe func() (vivado.Minutes, bool), run func(ctx context.Context) (vivado.Minutes, error)) error {
	if err := g.Add(id, stage, deps, run); err != nil {
		return err
	}
	g.jobs[id].Probe = probe
	return nil
}

// Len returns the number of registered jobs.
func (g *Graph) Len() int { return len(g.seq) }

// JobStats summarizes one scheduler execution: how many jobs of each
// stage ran, how many were cancelled by an upstream failure or an
// aborted context, how often failed jobs were retried, how the
// synthesis cache performed and how much simulated CAD time the jobs
// accumulated (Σ over all attempts plus virtual backoff, not wall
// time).
type JobStats struct {
	// Workers is the worker-pool size the graph executed on.
	Workers int
	// SynthJobs .. BitgenJobs count executed jobs per stage.
	SynthJobs  int
	PlanJobs   int
	ImplJobs   int
	BitgenJobs int
	// Cancelled counts jobs dropped because a dependency failed or the
	// context was cancelled before they were dispatched.
	Cancelled int
	// Skipped counts jobs whose stage-artifact probe hit: their cached
	// result was reused without running, so they appear in neither the
	// per-stage executed counts nor SimMinutes. Executed + Skipped +
	// Cancelled always sums to the graph size.
	Skipped int
	// SkippedByStage breaks Skipped down per stage (nil when nothing was
	// skipped).
	SkippedByStage map[Stage]int
	// StageCacheMisses counts probed jobs whose artifact key missed and
	// that therefore executed normally. Jobs without a probe (synthesis,
	// which the checkpoint cache covers) contribute to neither this nor
	// Skipped.
	StageCacheMisses int
	// Retries counts re-runs of failed job attempts (a job that
	// succeeds on its third attempt contributes two).
	Retries int
	// FailedJobs counts jobs whose final attempt still failed.
	FailedJobs int
	// CacheHits and CacheMisses report the synthesis-checkpoint cache
	// (zero when no cache is attached).
	CacheHits   int
	CacheMisses int
	// SimMinutes is the summed simulated duration of all executed jobs,
	// including the virtual backoff charged to retries.
	SimMinutes vivado.Minutes
}

// Executed returns the total number of jobs that ran.
func (s JobStats) Executed() int {
	return s.SynthJobs + s.PlanJobs + s.ImplJobs + s.BitgenJobs
}

func (s *JobStats) count(st Stage) {
	switch st {
	case StageSynth:
		s.SynthJobs++
	case StagePlan:
		s.PlanJobs++
	case StageImpl:
		s.ImplJobs++
	case StageBitgen:
		s.BitgenJobs++
	}
}

// JobError records one job's final failure after retries were
// exhausted. The flow's collect error policy surfaces the full sorted
// list instead of aborting on the first.
type JobError struct {
	// ID and Stage identify the failed job.
	ID    string
	Stage Stage
	// Attempts is how many times the job ran (1 = no retries).
	Attempts int
	// Err is the final attempt's error.
	Err error

	order int
}

// Error implements error.
func (e JobError) Error() string {
	if e.Attempts > 1 {
		return fmt.Sprintf("%s (after %d attempts): %v", e.ID, e.Attempts, e.Err)
	}
	return fmt.Sprintf("%s: %v", e.ID, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e JobError) Unwrap() error { return e.Err }

// JobOutcome reports one finished job to the OnJobDone observer.
type JobOutcome struct {
	// Minutes is the job's accounted simulated time (all attempts plus
	// virtual backoff).
	Minutes vivado.Minutes
	// Attempts is how many times the job ran (0 when Skipped).
	Attempts int
	// Skipped reports that the job's stage-artifact probe hit and Run
	// never executed; Minutes is the cached modelled duration.
	Skipped bool
	// Err is nil when the job ultimately succeeded.
	Err error
}

// ErrJobDeadline is wrapped by failures of jobs whose modelled runtime
// exceeded ExecOptions.JobDeadline.
var ErrJobDeadline = errors.New("job exceeded per-job deadline")

// DefaultRetryBackoff is the virtual-time penalty charged to a job's
// first retry when no explicit backoff is configured; it doubles per
// subsequent attempt up to DefaultBackoffCap. Fifteen modelled minutes
// approximates a license-server reconnect plus tool restart.
const DefaultRetryBackoff = vivado.Minutes(15)

// DefaultBackoffCap bounds the doubling virtual backoff.
const DefaultBackoffCap = vivado.Minutes(120)

// ExecOptions tunes one graph execution.
type ExecOptions struct {
	// Workers bounds the worker pool (0 = GOMAXPROCS, negative is an
	// error; see NormalizeWorkers).
	Workers int
	// MaxRetries re-runs a failed job up to this many extra attempts.
	// Context errors and deadline failures are never retried: the
	// former mean the flow is shutting down, the latter are
	// deterministic.
	MaxRetries int
	// Backoff is the virtual-time penalty of the first retry (0 =
	// DefaultRetryBackoff when MaxRetries > 0); it doubles per attempt.
	Backoff vivado.Minutes
	// BackoffCap bounds the doubled backoff (0 = DefaultBackoffCap).
	BackoffCap vivado.Minutes
	// JobDeadline fails any job whose modelled runtime exceeds it
	// (0 = no deadline). The check is in virtual time, so it is
	// deterministic for every worker count.
	JobDeadline vivado.Minutes
	// FailFast stops dispatching new jobs after the first failure
	// (in-flight jobs are still drained); the default keeps independent
	// subgraphs running so partial results survive.
	FailFast bool
	// OnJobDone, when set, observes every finished job (success or
	// final failure) from the coordinator goroutine, in completion
	// order. The flow's progress heartbeat rides on it.
	OnJobDone func(j *Job, out JobOutcome)
	// Observer, when set, records job spans, retry instants, worker
	// occupancy and per-stage runtime histograms. Nil disables all
	// observation at no cost; recorded spans carry wall timestamps but
	// nothing observed feeds back into scheduling, so results stay
	// byte-identical with or without it.
	Observer *obs.Observer
}

// jobDone carries one completion from a worker to the coordinator.
type jobDone struct {
	job      *Job
	runtime  vivado.Minutes
	attempts int
	skipped  bool // stage-artifact probe hit; Run never executed
	probed   bool // job had a probe (skipped or missed)
	err      error
}

// Execute runs the graph with background context and default retry
// policy — the pre-cancellation API, kept for callers that need
// neither.
func (g *Graph) Execute(workers int) (JobStats, error) {
	stats, errs, err := g.ExecuteCtx(context.Background(), ExecOptions{Workers: workers})
	if err != nil {
		return stats, err
	}
	if len(errs) > 0 {
		return stats, errs[0].Err
	}
	return stats, nil
}

// ExecuteCtx runs the graph on a pool of worker goroutines. Every job
// runs after all its dependencies succeeded; a failed job (after
// retries) cancels its transitive dependents without stopping
// independent work. Job failures are returned as a list sorted by
// graph-insertion order — the same order a sequential execution would
// have surfaced them — so the outcome does not depend on goroutine
// scheduling; the caller picks fail-fast (errs[0]) or collect
// semantics.
//
// The returned error is reserved for execution-level problems: an
// invalid worker count, an unknown dependency, a dependency cycle, or
// a cancelled/expired context. On cancellation the scheduler stops
// dispatching, drains every in-flight job, and shuts the pool down —
// no goroutine outlives the call.
func (g *Graph) ExecuteCtx(ctx context.Context, opt ExecOptions) (JobStats, []JobError, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers, err := NormalizeWorkers(opt.Workers)
	if err != nil {
		return JobStats{}, nil, err
	}
	if workers > len(g.seq) {
		workers = len(g.seq)
	}
	if workers < 1 {
		workers = 1
	}
	if opt.MaxRetries < 0 {
		return JobStats{}, nil, fmt.Errorf("flow: negative retry count %d", opt.MaxRetries)
	}
	if opt.Backoff <= 0 {
		opt.Backoff = DefaultRetryBackoff
	}
	if opt.BackoffCap <= 0 {
		opt.BackoffCap = DefaultBackoffCap
	}
	stats := JobStats{Workers: workers}
	if len(g.seq) == 0 {
		return stats, nil, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return stats, nil, fmt.Errorf("flow: execution cancelled before any job ran: %w", err)
	}

	indeg := make(map[string]int, len(g.seq))
	dependents := make(map[string][]*Job)
	for _, j := range g.seq {
		for _, dep := range j.Deps {
			if _, ok := g.jobs[dep]; !ok {
				return stats, nil, fmt.Errorf("flow: job %q depends on unknown job %q", j.ID, dep)
			}
			indeg[j.ID]++
			dependents[dep] = append(dependents[dep], j)
		}
	}

	// Resolved once: with a nil Observer every instrument below is nil
	// and each probe costs one nil check.
	reg := opt.Observer.Metrics()
	tr := opt.Observer.Tracer()
	busy := reg.Gauge("flow_workers_busy")
	jobsTotal := reg.Counter("flow_jobs_total")
	jobsFailed := reg.Counter("flow_jobs_failed_total")
	jobsCancelled := reg.Counter("flow_jobs_cancelled_total")
	jobRetries := reg.Counter("flow_job_retries_total")
	stageCacheHits := reg.Counter("flow_stage_cache_hits")
	stageCacheMisses := reg.Counter("flow_stage_cache_misses")
	stageMinutes := map[Stage]*obs.Histogram{
		StageSynth:  reg.Histogram("flow_stage_minutes_synth"),
		StagePlan:   reg.Histogram("flow_stage_minutes_plan"),
		StageImpl:   reg.Histogram("flow_stage_minutes_impl"),
		StageBitgen: reg.Histogram("flow_stage_minutes_bitgen"),
	}
	if tr != nil {
		for w := 0; w < workers; w++ {
			tr.SetThreadName(w, fmt.Sprintf("worker-%d", w))
		}
	}

	// Buffers sized to the job count: dispatch and completion never
	// block, so the coordinator cannot deadlock against the pool and a
	// cancelled coordinator can always drain in-flight results.
	work := make(chan *Job, len(g.seq))
	results := make(chan jobDone, len(g.seq))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for j := range work {
				busy.Add(1)
				// A probe hit skips the job: no "job" span is recorded (the
				// observed-span == executed-jobs invariant holds), just a
				// stage-skip instant on the worker's lane.
				if j.Probe != nil {
					if m, ok := j.Probe(); ok {
						if tr != nil {
							tr.Instant("stage-skip", j.ID, tid, map[string]any{
								"stage":       j.Stage.String(),
								"sim_minutes": float64(m),
							})
						}
						busy.Add(-1)
						results <- jobDone{job: j, runtime: m, skipped: true, probed: true}
						continue
					}
				}
				start := tr.Now()
				d := runWithRetry(ctx, j, opt, tr, tid)
				d.probed = j.Probe != nil
				if tr != nil {
					args := map[string]any{
						"stage":       j.Stage.String(),
						"sim_minutes": float64(d.runtime),
						"attempts":    d.attempts,
					}
					if d.err != nil {
						args["error"] = d.err.Error()
					}
					tr.Complete("job", j.ID, tid, start, tr.Now()-start, args)
				}
				busy.Add(-1)
				results <- d
			}
		}(w)
	}

	cancelled := make(map[string]bool)
	var failures []JobError
	pending := len(g.seq)
	running := 0
	completed := make(map[string]bool)

	dispatch := func(j *Job) {
		running++
		work <- j
	}
	// cancelJob removes j and its transitive dependents from the pending
	// set; none of them has been dispatched (they still wait on the
	// failed dependency).
	var cancelJob func(j *Job)
	cancelJob = func(j *Job) {
		if cancelled[j.ID] {
			return
		}
		cancelled[j.ID] = true
		stats.Cancelled++
		jobsCancelled.Inc()
		pending--
		for _, dep := range dependents[j.ID] {
			cancelJob(dep)
		}
	}
	account := func(d jobDone) {
		completed[d.job.ID] = true
		if d.skipped {
			// A cache skip is reuse, not execution: it stays out of the
			// per-stage executed counts, SimMinutes and flow_jobs_total so
			// every executed-jobs invariant (span counts, flow_jobs_total)
			// holds; only the skip-side books move.
			stats.Skipped++
			if stats.SkippedByStage == nil {
				stats.SkippedByStage = make(map[Stage]int)
			}
			stats.SkippedByStage[d.job.Stage]++
			stageCacheHits.Inc()
			if opt.OnJobDone != nil {
				opt.OnJobDone(d.job, JobOutcome{Minutes: d.runtime, Skipped: true})
			}
			return
		}
		if d.probed {
			stats.StageCacheMisses++
			stageCacheMisses.Inc()
		}
		stats.count(d.job.Stage)
		stats.SimMinutes += d.runtime
		stats.Retries += d.attempts - 1
		jobsTotal.Inc()
		jobRetries.Add(int64(d.attempts - 1))
		stageMinutes[d.job.Stage].Observe(float64(d.runtime))
		if d.err != nil {
			stats.FailedJobs++
			jobsFailed.Inc()
		}
		if opt.OnJobDone != nil {
			opt.OnJobDone(d.job, JobOutcome{Minutes: d.runtime, Attempts: d.attempts, Err: d.err})
		}
	}

	for _, j := range g.seq {
		if indeg[j.ID] == 0 {
			dispatch(j)
		}
	}
	// handle books one completion; when release is set a success frees
	// its dependents for dispatch (a draining coordinator passes false).
	handle := func(d jobDone, release bool) {
		running--
		pending--
		account(d)
		if d.err != nil {
			failures = append(failures, JobError{
				ID: d.job.ID, Stage: d.job.Stage, Attempts: d.attempts, Err: d.err, order: d.job.order,
			})
			for _, dep := range dependents[d.job.ID] {
				cancelJob(dep)
			}
			return
		}
		if !release {
			return
		}
		for _, dep := range dependents[d.job.ID] {
			if cancelled[dep.ID] {
				continue
			}
			indeg[dep.ID]--
			if indeg[dep.ID] == 0 {
				dispatch(dep)
			}
		}
	}

	aborted := false // context cancelled
	stopped := false // fail-fast stop after a job failure
	for pending > 0 && !aborted && !stopped {
		if running == 0 {
			// Nothing runs and nothing can become ready: the remaining
			// jobs wait on each other in a cycle.
			close(work)
			wg.Wait()
			var stuck []string
			for _, j := range g.seq {
				if !cancelled[j.ID] && !completed[j.ID] && indeg[j.ID] > 0 {
					stuck = append(stuck, j.ID)
				}
			}
			sort.Strings(stuck)
			return stats, sortJobErrors(failures), fmt.Errorf("flow: job graph has a dependency cycle among %v", stuck)
		}
		select {
		case <-ctx.Done():
			aborted = true
		case d := <-results:
			handle(d, true)
			if len(failures) > 0 && opt.FailFast {
				stopped = true
			}
		}
	}
	// Drain every in-flight job before tearing the pool down: results is
	// buffered, so workers can never block, and jobs observe ctx
	// themselves and return promptly after a cancellation.
	for running > 0 {
		handle(<-results, false)
	}
	close(work)
	wg.Wait()

	if aborted || stopped {
		// Never-dispatched jobs count as cancelled so Executed + Skipped
		// + Cancelled always sums to the graph size.
		for _, j := range g.seq {
			if !completed[j.ID] && !cancelled[j.ID] {
				cancelled[j.ID] = true
				stats.Cancelled++
				jobsCancelled.Inc()
			}
		}
	}
	if aborted {
		return stats, sortJobErrors(failures), fmt.Errorf("flow: execution cancelled: %w", ctx.Err())
	}
	return stats, sortJobErrors(failures), nil
}

// runWithRetry executes one job up to 1+MaxRetries times, charging the
// doubling virtual backoff to each retry. Context errors and deadline
// overruns stop the attempt loop immediately: retrying a cancelled
// flow is pointless and a deadline overrun is deterministic. Each
// retry emits a trace instant on the worker's lane (tr may be nil).
func runWithRetry(ctx context.Context, j *Job, opt ExecOptions, tr *obs.Tracer, tid int) jobDone {
	var total vivado.Minutes
	backoff := opt.Backoff
	attempts := 0
	for {
		attempts++
		t, err := j.Run(ctx)
		if err == nil && opt.JobDeadline > 0 && t > opt.JobDeadline {
			err = fmt.Errorf("flow: job %s ran %v, over the %v deadline: %w",
				j.ID, t, opt.JobDeadline, ErrJobDeadline)
		}
		total += t
		if err == nil {
			return jobDone{job: j, runtime: total, attempts: attempts, err: nil}
		}
		if attempts > opt.MaxRetries || !retryable(err) || ctx.Err() != nil {
			return jobDone{job: j, runtime: total, attempts: attempts, err: err}
		}
		if tr != nil {
			tr.Instant("retry", j.ID, tid, map[string]any{
				"attempt":         attempts,
				"backoff_minutes": float64(backoff),
				"error":           err.Error(),
			})
		}
		total += backoff
		if backoff *= 2; backoff > opt.BackoffCap {
			backoff = opt.BackoffCap
		}
	}
}

// retryable reports whether a failed attempt is worth re-running:
// everything except cancellation and deterministic deadline overruns.
func retryable(err error) bool {
	return !errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, ErrJobDeadline)
}

// sortJobErrors orders failures by graph-insertion order — the
// deterministic, scheduling-independent error priority.
func sortJobErrors(errs []JobError) []JobError {
	sort.Slice(errs, func(i, j int) bool { return errs[i].order < errs[j].order })
	return errs
}
