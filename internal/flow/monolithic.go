package flow

import (
	"context"
	"fmt"

	"presp/internal/core"
	"presp/internal/faultinject"
	"presp/internal/fpga"
	"presp/internal/socgen"
	"presp/internal/vivado"
)

// RunMonolithic executes the monolithic baseline of Table V: the whole
// SoC — accelerators included — is synthesized and implemented flat in a
// single tool instance, with no reconfigurable partitions, no pblock
// constraints and no partial bitstreams. This is the "equivalent
// monolithic design" the paper compares compile times against.
//
// The run goes through the same job scheduler as the partitioned flows
// — a three-job chain (synth → impl → bitgen), so Result.Jobs accounts
// for it uniformly. It is bounded by ctx (and Options.Timeout), with
// the same retry, fault-injection and error-policy semantics
// as the partitioned flows.
func RunMonolithic(ctx context.Context, d *socgen.Design, opt Options) (*Result, error) {
	ctx, cancel := flowCtx(ctx, opt)
	defer cancel()
	tool, err := setupRun(d, opt)
	if err != nil {
		return nil, err
	}
	res := &Result{Design: d, SynthRuns: make(map[string]vivado.Minutes)}
	total := d.StaticResources.Add(d.ReconfigurableResources())

	g := NewGraph()
	// Single-instance synthesis of the full hierarchy. The time is
	// computed from the aggregate size directly, so the fault gate the
	// tool's Synthesize would apply is invoked explicitly.
	must(g.Add("synth/full", StageSynth, nil, func(ctx context.Context) (vivado.Minutes, error) {
		if err := tool.CheckFault(ctx, faultinject.OpCADSynth, "full", d.Cfg.Name); err != nil {
			return 0, fmt.Errorf("flow: monolithic synthesis: %w", err)
		}
		t := tool.Model().SynthTime(float64(total[fpga.LUT])/1000.0, false)
		res.SynthWall = t
		res.SynthRuns["full"] = t
		return t, nil
	}))
	// Flat implementation: no partitions (nRP = 0), no reserved area.
	must(g.Add("impl/flat", StageImpl, []string{"synth/full"}, func(ctx context.Context) (vivado.Minutes, error) {
		sr, err := tool.ImplementSerial(ctx, d.Cfg.Name+"_mono", total, 0, 0)
		if err != nil {
			return 0, err
		}
		res.PRWall = sr.Runtime
		return sr.Runtime, nil
	}))
	if !opt.SkipBitstreams {
		must(g.Add("bitgen/full", StageBitgen, []string{"impl/flat"}, func(ctx context.Context) (vivado.Minutes, error) {
			full, t, err := tool.WriteFullBitstream(ctx, d.Cfg.Name+"_mono.bit", total, opt.Compress)
			if err != nil {
				return 0, err
			}
			res.FullBitstream = full
			res.BitgenWall = t
			return t, nil
		}))
	}
	if err := execGraph(ctx, g, tool, opt, res); err != nil {
		return nil, err
	}

	res.Strategy = &core.Strategy{Kind: core.Serial, Tau: 1}
	if m, err := core.ComputeMetrics(d); err == nil {
		res.Strategy.Metrics = m
	}
	res.Total = res.SynthWall + res.PRWall
	return res, nil
}
