package main

import (
	"context"
	"math"
	"sort"
	"strings"
	"testing"
)

// measureFor runs the shortest invocation of the flow-iterate workload
// (every leg at its probe length), which drives every leg and so
// produces every metric.
func measureFor(t *testing.T, seed int64, workers int, trace bool) metrics {
	t.Helper()
	cfg := config{workload: workloads[0], seed: seed, seconds: 1, trace: trace, workers: workers}
	res, err := measure(context.Background(), cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", res.failed, res.attempted, res.failures)
	}
	return res.m
}

// deterministic lists the metrics that must repeat exactly: the
// modelled figures and the work counts. Counts that depend on host
// timing — dedup of concurrent daemon submissions — are left out.
func deterministic(m metrics) map[string]float64 {
	out := map[string]float64{}
	for name, v := range m {
		switch {
		case name == "flow_model_min", name == "sim_s_per_frame", name == "sim_j_per_frame",
			name == "ok_ratio",
			strings.HasPrefix(name, "flow.jobs_"), name == "flow.skip_ratio",
			name == "vivado.ckpt_hit_ratio", name == "vivado.stage_hit_ratio",
			strings.HasPrefix(name, "reconfig.") && name != "reconfig.host_us_per_reconfig",
			strings.HasPrefix(name, "noc.flits."),
			name == "server.rejected", name == "server.retained_jobs", name == "server.latency_samples":
			out[name] = v
		}
	}
	return out
}

func sameDeterministic(t *testing.T, what string, a, b metrics) {
	t.Helper()
	da, db := deterministic(a), deterministic(b)
	names := make([]string, 0, len(da))
	for n := range da {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) < 10 {
		t.Fatalf("%s: only %d deterministic metrics measured: %v", what, len(names), names)
	}
	for _, n := range names {
		vb, ok := db[n]
		if !ok {
			t.Errorf("%s: %s measured once only", what, n)
			continue
		}
		if da[n] != vb {
			t.Errorf("%s: %s = %v vs %v", what, n, da[n], vb)
		}
	}
}

// checkNames reports metric names declared but not measured, and
// measured but not declared, for the metrics of one kind.
func checkNames(defs []metricDef, m metrics, ofKind func(string) bool) []string {
	var bad []string
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.Name] = true
		if _, ok := m[d.Name]; !ok {
			bad = append(bad, "not measured: "+d.Name)
		}
	}
	for name := range m {
		if ofKind(name) && !declared[name] {
			bad = append(bad, "not declared: "+name)
		}
	}
	return bad
}

// isEndToEnd tells end-to-end metric names from per-layer ones: only
// per-layer names carry a layer prefix.
func isEndToEnd(name string) bool { return !strings.Contains(name, ".") }

// TestBenchmark runs the benchmark four times and checks its contract:
// the printed names match BENCHMARK.json both ways; modelled metrics and
// counts repeat exactly across runs, flow worker counts and tracing;
// and the modelled metrics of a held-out seed stay within their bounds.
func TestBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark four times")
	}
	bf, err := loadBenchFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	plain := measureFor(t, 1, 2, false)
	oneWorker := measureFor(t, 1, 1, false)
	traced := measureFor(t, 1, 2, true)
	heldOut := measureFor(t, 424242, 2, false)

	t.Run("names", func(t *testing.T) {
		for _, bad := range checkNames(bf.EndToEnd, plain, isEndToEnd) {
			t.Error("end-to-end", bad)
		}
		for _, bad := range checkNames(bf.PerLayer, traced, func(n string) bool { return !isEndToEnd(n) }) {
			t.Error("per-layer", bad)
		}
		for _, d := range bf.EndToEnd {
			if v := plain[d.Name]; v == 0 || math.IsNaN(v) {
				t.Errorf("end-to-end metric %s reads %v", d.Name, v)
			}
		}
		if len(bf.Workloads) != len(workloads) {
			t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
		}
		for i, w := range bf.Workloads {
			if w.Name != workloads[i].name {
				t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
			}
		}
	})
	t.Run("workers", func(t *testing.T) { sameDeterministic(t, "workers 2 vs 1", plain, oneWorker) })
	t.Run("trace", func(t *testing.T) { sameDeterministic(t, "untraced vs traced", plain, traced) })
	t.Run("held-out seed", func(t *testing.T) {
		for _, d := range bf.EndToEnd {
			switch d.Name {
			case "flow_model_min", "sim_s_per_frame", "sim_j_per_frame":
			default:
				continue
			}
			a, b := plain[d.Name], heldOut[d.Name]
			if math.Abs(b-a)/a > d.Bound {
				t.Errorf("%s: seed 1 %v, held-out seed %v: differs by more than its bound %v", d.Name, a, b, d.Bound)
			}
		}
	})
}

func TestCovered(t *testing.T) {
	ivs := [][2]int64{{5, 8}, {0, 2}, {1, 4}, {7, 12}}
	if got := covered(ivs, 0, 10); got != 9 { // [0,4) and [5,10)
		t.Fatalf("covered = %d, want 9", got)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Layer: "flow", Start: 0, End: 10e6, Parent: -1},
		{Layer: "vivado", Start: 1e6, End: 4e6, Parent: 0},
		{Layer: "vivado", Start: 2e6, End: 5e6, Parent: 0}, // overlaps its sibling
	}
	self := tr.selfTimes()
	if self["flow"] != 6 || self["vivado"] != 6 {
		t.Fatalf("self times %v, want flow 6 ms and vivado 6 ms", self)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
	if q := quantile(xs, 0.9); math.Abs(q-3.7) > 1e-12 {
		t.Fatalf("p90 = %v", q)
	}
}
