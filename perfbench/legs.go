package main

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// leg is one of the three load generators: the flow designer loop, the
// daemon clients and the WAMI runtimes. A leg's work is a sequence of
// steps.
type leg interface {
	name() string
	steps() int
	// step runs step i. Failed operations are counted in the leg's
	// tally; an error means the leg itself could not go on.
	step(ctx context.Context, i int) error
	counts() *tally
	// opsForAlloc is the operation count alloc_mb_per_op divides by.
	opsForAlloc() int
	metrics(m metrics)
}

// tally counts a leg's operations and failures and sums the heap it
// allocated and the host time of its timed operations.
type tally struct {
	attempts int
	failed   int
	failures []string
	allocMB  float64
	opTime   time.Duration
	clock    hostClock
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
}

// runLeg runs a leg's steps in order, charging each step's heap
// allocation to the leg and sampling its host clock after each step.
func runLeg(ctx context.Context, l leg) error {
	t := l.counts()
	for i := 0; i < l.steps(); i++ {
		a0 := allocMB()
		if err := l.step(ctx, i); err != nil {
			return fmt.Errorf("%s leg, step %d: %w", l.name(), i, err)
		}
		t.allocMB += allocMB() - a0
		t.clock.sample()
	}
	return nil
}

// hostMetrics are each leg's host-time figures, which are reported on
// the nominal host; hostRates are those among them that are rates.
var (
	hostMetrics = map[string][]string{
		"flow":  {"flow_cold_ms", "flow_warm_ms", "flow_edit_ms", "flow_restart_ms"},
		"serve": {"serve_jobs_per_s", "serve_latency_p50_ms", "serve_latency_p90_ms"},
		"sim":   {"sim_frames_per_host_s"},
	}
	hostRates = map[string]bool{"serve_jobs_per_s": true, "sim_frames_per_host_s": true}
)

// toNominal rescales a leg's host-time figures in m by its clock and
// returns a note with the leg's speed and raw figures.
func toNominal(l leg, m metrics) string {
	speed := l.counts().clock.speed()
	raw := make([]string, 0, len(hostMetrics[l.name()]))
	for _, name := range hostMetrics[l.name()] {
		raw = append(raw, fmt.Sprintf("%s %.4g", name, m[name]))
		if hostRates[name] {
			m[name] /= speed
		} else {
			m[name] *= speed
		}
	}
	return fmt.Sprintf("%s host speed %.3f (%d samples); raw: %s",
		l.name(), speed, len(l.counts().clock.samples), strings.Join(raw, ", "))
}
