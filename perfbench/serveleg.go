package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"presp/internal/experiments"
	"presp/internal/flow"
	"presp/internal/obs"
	"presp/internal/server"
)

const (
	serveClients = 2
	pollInterval = 2 * time.Millisecond
)

// serveSpecs is the spec mix: every CAD preset under the PR-ESP flow
// and the standard-DFX baseline, compressed and not.
func serveSpecs() []server.Spec {
	var out []server.Spec
	for _, p := range flowPresets {
		for _, f := range []string{"presp", "standard-dfx"} {
			for _, c := range []bool{true, false} {
				out = append(out, server.Spec{Preset: p, Flow: f, Compress: c})
			}
		}
	}
	return out
}

type serveSpec = server.Spec

// serveRound is one round of 48 jobs: every compressed spec twice and
// every uncompressed spec once. Compression on is the paper's
// deployment configuration. Uncompressed jobs take about three times
// as long, so with whole rounds the latency median falls inside the
// compressed jobs' spread and p90 inside the uncompressed ones'; an
// even split, or a uniform draw whose split moves with the seed, puts
// the median in the gap between the two and makes it jump from run to
// run.
func serveRound() []serveSpec {
	var round []serveSpec
	for _, s := range serveSpecs() {
		round = append(round, s)
		if s.Compress {
			round = append(round, s)
		}
	}
	return round
}

// serveWarmupRounds is the number of leading rounds whose jobs are run
// and checked but left out of the latency and throughput figures: they
// find their specs cold, and whether a cold job runs alone, beside
// another cold one or deduplicated onto one depends on host timing.
// Every later round finds its specs warm.
const serveWarmupRounds = 1

// genServeJobs draws rounds, each a seeded permutation of serveRound.
func genServeJobs(rng *rand.Rand, rounds int) []serveSpec {
	round := serveRound()
	var out []serveSpec
	for r := 0; r < rounds; r++ {
		for _, i := range rng.Perm(len(round)) {
			out = append(out, round[i])
		}
	}
	return out
}

// serveRig is one booted daemon: presp-served's defaults, a durable
// job WAL under stateDir and an always-on observer, served over HTTP.
// One default is changed: each job's flow scheduler runs one worker
// instead of one per CPU. The two daemon workers then each own one of
// the host's two CPUs; with a pool per CPU, a job runs twice as wide
// when the other client's job does not overlap it, and which jobs
// overlap moves with the seed and the host's timing.
type serveRig struct {
	srv    *server.Server
	ts     *httptest.Server
	closed bool
}

func bootServer(stateDir string) (*serveRig, error) {
	srv := server.New(server.Config{StateDir: stateDir, Observer: obs.New(), JobWorkers: 1})
	if _, err := srv.Recover(); err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	return &serveRig{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

// close stops the HTTP listener, then drains the daemon. Closing a
// closed rig does nothing.
func (r *serveRig) close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.ts.Close()
	return r.srv.Shutdown(context.Background())
}

// serveJob is one submitted job as a client saw it.
type serveJob struct {
	spec    serveSpec
	latency time.Duration // submit to observed terminal state
	submit  time.Duration // POST round trip
	polls   []time.Duration
	view    server.JobView
	err     error
}

// serveLeg drives the daemon with closed-loop clients: each POSTs its
// next spec only after the previous job reached a terminal state. A
// step is one segment of segmentJobs jobs, split between the clients.
// Each succeeded job's bitstream CRCs are checked against an in-process
// flow.RunFlow of the same spec, outside the timed segments.
type serveLeg struct {
	rig      *serveRig
	jobs     []serveSpec
	warmup   int // leading jobs left out of the timing figures
	workers  int
	tr       *tracer
	ops      *opCounter
	refs     map[serveSpec]string
	done     []*serveJob
	busy     time.Duration // summed segment wall time
	rejected int
	retained int
	tally
}

const segmentJobs = 2 * serveClients

func newServeLeg(rig *serveRig, jobs []serveSpec, workers int, tr *tracer, ops *opCounter) *serveLeg {
	return &serveLeg{rig: rig, jobs: jobs, warmup: serveWarmupRounds * len(serveRound()),
		workers: workers, tr: tr, ops: ops, refs: map[serveSpec]string{}}
}

func (l *serveLeg) name() string     { return "serve" }
func (l *serveLeg) steps() int       { return (len(l.jobs) + segmentJobs - 1) / segmentJobs }
func (l *serveLeg) counts() *tally   { return &l.tally }
func (l *serveLeg) opsForAlloc() int { return l.attempts }

// step runs segment i: client c submits jobs c, c+serveClients, ... of
// the segment in order.
func (l *serveLeg) step(ctx context.Context, i int) error {
	seg := l.jobs[i*segmentJobs : min(len(l.jobs), (i+1)*segmentJobs)]
	client := l.rig.ts.Client()
	results := make([]*serveJob, len(seg))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < len(seg); k += serveClients {
				results[k] = runServeJob(ctx, client, l.rig.ts.URL, c, seg[k], l.tr, l.ops.next())
			}
		}(c)
	}
	wg.Wait()
	timed := i*segmentJobs >= l.warmup
	if timed {
		l.busy += time.Since(t0)
	}
	for _, j := range results {
		l.attempts++
		l.done = append(l.done, j)
		if j.err != nil {
			if strings.Contains(j.err.Error(), "HTTP 429") || strings.Contains(j.err.Error(), "HTTP 503") {
				l.rejected++
			}
			l.fail("%s/%s: %v", j.spec.Preset, j.spec.Flow, j.err)
			continue
		}
		if timed {
			l.opTime += j.latency
		}
		want, ok := l.refs[j.spec]
		if !ok {
			var err error
			if want, err = referenceCRCs(ctx, j.spec, l.workers); err != nil {
				return err
			}
			l.refs[j.spec] = want
		}
		if got := strings.Join(j.view.Result.BitstreamCRCs, ","); got != want {
			l.fail("%s/%s compress=%v: bitstream CRCs differ from flow.RunFlow",
				j.spec.Preset, j.spec.Flow, j.spec.Compress)
		}
	}
	l.retained = l.rig.srv.Snapshot().Jobs
	return nil
}

// runServeJob submits one spec and polls it to a terminal state.
func runServeJob(ctx context.Context, client *http.Client, base string, c int, spec serveSpec, tr *tracer, op int64) *serveJob {
	j := &serveJob{spec: spec}
	body, err := json.Marshal(spec)
	if err != nil {
		j.err = err
		return j
	}
	root := tr.begin("server", "server.job", -1, op)
	defer tr.end(root)
	t0 := time.Now()
	id := tr.begin("server", "server.submit", root, op)
	var view server.JobView
	err = doJSON(ctx, client, http.MethodPost, base+"/v1/jobs", fmt.Sprintf("client-%d", c), body, http.StatusAccepted, &view)
	tr.end(id)
	j.submit = time.Since(t0)
	if err != nil {
		j.err = err
		return j
	}
	for {
		p0 := time.Now()
		id := tr.begin("server", "server.poll", root, op)
		err := doJSON(ctx, client, http.MethodGet, base+"/v1/jobs/"+view.ID, fmt.Sprintf("client-%d", c), nil, http.StatusOK, &view)
		tr.end(id)
		j.polls = append(j.polls, time.Since(p0))
		if err != nil {
			j.err = err
			return j
		}
		if terminal(view.State) {
			break
		}
		time.Sleep(pollInterval)
	}
	j.latency = time.Since(t0)
	j.view = view
	if view.State != server.StateSucceeded || view.Result == nil {
		j.err = fmt.Errorf("job %s ended %s: %s", view.ID, view.State, view.Error)
	}
	return j
}

func terminal(s server.JobState) bool {
	switch s {
	case server.StateQueued, server.StateRunning:
		return false
	}
	return true
}

// doJSON performs one API call and decodes the JSON reply into v.
func doJSON(ctx context.Context, client *http.Client, method, url, tenant string, body []byte, want int, v any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	req.Header.Set("X-Tenant", tenant)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// referenceCRCs runs spec in-process, with no daemon and no caches, and
// fingerprints its bitstreams the way the daemon's ResultView does.
func referenceCRCs(ctx context.Context, spec serveSpec, workers int) (string, error) {
	cfg, err := experiments.PresetConfig(spec.Preset)
	if err != nil {
		return "", err
	}
	d, err := experiments.ElaborateConfig(cfg)
	if err != nil {
		return "", err
	}
	res, err := flow.RunFlow(ctx, spec.Flow, d, flow.Options{Compress: spec.Compress, Workers: workers})
	if err != nil {
		return "", fmt.Errorf("reference %s/%s: %w", spec.Preset, spec.Flow, err)
	}
	return crcSet(res), nil
}

// metrics derives the leg's end-to-end metrics and the server layer's
// metrics from what the clients saw: round trips, and the queue and run
// intervals of each job's own timestamps.
func (l *serveLeg) metrics(m metrics) {
	var lat, submit, poll, wait, runT []float64
	dedup := 0
	for k, j := range l.done {
		if j.err == nil && j.view.Deduplicated {
			dedup++
		}
		if k < l.warmup {
			continue
		}
		submit = append(submit, ms(j.submit))
		for _, p := range j.polls {
			poll = append(poll, ms(p))
		}
		if j.err != nil {
			continue
		}
		lat = append(lat, ms(j.latency))
		sub, e1 := time.Parse(time.RFC3339Nano, j.view.SubmittedAt)
		st, e2 := time.Parse(time.RFC3339Nano, j.view.StartedAt)
		fin, e3 := time.Parse(time.RFC3339Nano, j.view.FinishedAt)
		if e1 == nil && e2 == nil && e3 == nil {
			wait = append(wait, ms(st.Sub(sub)))
			runT = append(runT, ms(fin.Sub(st)))
		}
	}
	m.set("serve_jobs_per_s", float64(len(lat))/l.busy.Seconds())
	m.set("serve_latency_p50_ms", median(lat))
	m.set("serve_latency_p90_ms", quantile(lat, 0.9))
	m.set("server.submit_ms", median(submit))
	m.set("server.poll_ms", median(poll))
	m.set("server.queue_wait_ms", median(wait))
	m.set("server.run_ms", median(runT))
	m.set("server.deduped_ratio", ratio(dedup, len(l.done)))
	m.set("server.rejected", float64(l.rejected))
	m.set("server.retained_jobs", float64(l.retained))
	m.set("server.latency_samples", float64(len(lat)))
}

// latencyNote states the sample count behind the latency percentiles.
func (l *serveLeg) latencyNote() string {
	n := 0
	for _, j := range l.done[min(l.warmup, len(l.done)):] {
		if j.err == nil {
			n++
		}
	}
	return fmt.Sprintf("serve latency: %d samples after %d warm-up jobs, %.1f beyond p90", n, l.warmup, 0.1*float64(n))
}
