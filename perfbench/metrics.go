package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"presp/internal/flow"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchFile is the part of BENCHMARK.json the benchmark reads: the
// metric lists are the single source of names, units and directions.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// selfLayers are the layers the workload spans are attributed to.
var selfLayers = []string{"flow", "vivado", "floorplan", "bitstream", "socgen", "server", "wami"}

// replayLayers times each layer on its own, after the legs, and adds
// the per-layer metrics of a traced run to res.
func replayLayers(ctx context.Context, cfg config, r *rig, s samples, res *result) error {
	m := res.m
	for _, p := range flowPresets {
		d := r.in.base[p]
		// A cache-free run: the cost a warm rerun has to beat.
		t0 := time.Now()
		fr, err := flow.RunPRESP(ctx, d, flow.Options{Compress: true, Workers: cfg.workers})
		if err != nil {
			return err
		}
		s.add("flow.plain_ms", ms(time.Since(t0)))
		if err := replayBitstreams(d, fr, s); err != nil {
			return err
		}
		if err := replaySynth(ctx, d, s); err != nil {
			return err
		}
	}
	for i := 0; i < 20; i++ {
		if err := replayDispatch(ctx, cfg.workers, 256, s); err != nil {
			return err
		}
	}
	for _, rt := range r.rts {
		if rt.cfg.seu {
			continue
		}
		if err := replayReconfig(rt, s); err != nil {
			return err
		}
	}
	if err := replayNoC(r.rts[0], s); err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		if err := replayEngine(200000, s); err != nil {
			return err
		}
	}
	if err := replayKernels(kernelBatch(cfg.seed), 12, s); err != nil {
		return err
	}
	replayCRC(r.rts, s)

	for name, xs := range s {
		if name == "vivado.stage_bytes" {
			m.set(name, mean(xs))
			continue
		}
		m.set(name, median(xs))
	}
	spanDur := map[string][]float64{}
	for _, sp := range res.tr.snapshot() {
		if sp.End >= 0 {
			spanDur[sp.Name] = append(spanDur[sp.Name], float64(sp.End-sp.Start)/1e6)
		}
	}
	m.set("socgen.elaborate_ms", median(spanDur["socgen.Elaborate"]))
	m.set("floorplan.plan_ms", median(spanDur["floorplan.Plan"]))
	self := res.tr.selfTimes()
	for _, l := range selfLayers {
		m.set("self."+l+"_ms", self[l])
	}
	m.set("trace.spans", float64(res.tr.len()))
	return nil
}
