// Stage-artifact keys: the content addresses behind incremental
// re-flow. Each post-synthesis job — floorplan, script generation, the
// implementation runs, bitstream generation — derives a key from
// everything its result depends on: the design digest inputs, the
// device, the cost model, the partition module set and the *upstream
// artifact keys*, so invalidation follows the dependency graph. Editing
// one partition's content changes its synthesis checkpoint key, which
// changes exactly the implementation run that consumes it and the
// partial bitstreams of that run's partitions — the floorplan, the
// static pre-route, every other group and the full-device bitstream
// keep their keys and skip. See DESIGN.md §16.
package flow

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"

	"presp/internal/core"
	"presp/internal/fpga"
	"presp/internal/socgen"
	"presp/internal/vivado"
)

// artifactDigest accumulates one stage key. The framing matches the
// package's other digests: strings are 0xff-terminated so ("ab","c")
// and ("a","bc") differ, numbers are fixed-width little-endian.
type artifactDigest struct {
	h   hash.Hash64
	buf [8]byte
}

func newArtifactDigest(kind string) *artifactDigest {
	d := &artifactDigest{h: fnv.New64a()}
	d.str(kind)
	return d
}

func (d *artifactDigest) str(s string) {
	d.h.Write([]byte(s))
	d.h.Write([]byte{0xff})
}

func (d *artifactDigest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *artifactDigest) flag(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *artifactDigest) res(r fpga.Resources) {
	for _, n := range r {
		d.u64(uint64(n))
	}
}

func (d *artifactDigest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// stageKeys holds the derived artifact keys of one partitioned run.
// Empty keys (nil receiver, or a partition without content) disable
// caching for the affected jobs; everything else probes the cache.
type stageKeys struct {
	cache      *vivado.StageCache
	floorplan  string
	scripts    string
	implStatic string
	serial     string
	groups     []string // one per strategy group
	bitgenFull string
	partials   map[string]string // partition name -> partial-bitgen key
}

// buildStageKeys derives every stage key of a partitioned run up front —
// all inputs are known before the first job executes. A design with a
// contentless partition cannot be keyed (its synthesis key is
// undefined); runs under a fault plan are not keyed either, because a
// cache skip would bypass the injected fault and break the plan's
// determinism contract. Both return nil, which disables stage caching.
func buildStageKeys(d *socgen.Design, tool *vivado.Tool, strat *core.Strategy, opt Options, mode flowMode) *stageKeys {
	if opt.StageCache == nil || opt.FaultPlan != nil {
		return nil
	}
	for _, rp := range d.RPs {
		if rp.Content == nil {
			return nil
		}
	}
	modelBytes, err := json.Marshal(tool.Model())
	if err != nil {
		return nil
	}
	modelDigest := string(modelBytes)

	// Strategy digest: kind, degree and the exact group assignment.
	sd := newArtifactDigest("strategy/v1")
	sd.str(strat.Kind.String())
	sd.u64(uint64(strat.Tau))
	for _, group := range strat.Groups {
		for _, name := range group {
			sd.str(name)
		}
		sd.str("|")
	}
	strategyDigest := sd.sum()

	sk := &stageKeys{cache: opt.StageCache, partials: make(map[string]string, len(d.RPs))}

	// Floorplan: device geometry, cost model (pblock slack), the static
	// envelope and every partition's name, resource envelope and the
	// content properties the DFX design rule checks read — the content
	// *name* and clock-topology flags, deliberately not the content's
	// cost vector, so re-costing a kernel keeps the floorplan hit while
	// anything DRC-visible invalidates it.
	fp := newArtifactDigest("floorplan/v1")
	fp.str(mode.name())
	fp.str(d.Cfg.Name)
	fp.str(d.Dev.Name)
	fp.res(d.Dev.Total)
	fp.str(modelDigest)
	fp.res(d.StaticResources)
	for _, rp := range d.RPs {
		fp.str(rp.Name)
		fp.res(rp.Resources)
		fp.str(rp.Content.Name)
		fp.flag(rp.Content.ContainsClockModifying())
		fp.flag(rp.Content.DrivesClockOut())
	}
	sk.floorplan = fp.sum()

	// Scripts render the floorplan under the chosen strategy; both are
	// already digests.
	sc := newArtifactDigest("scripts/v1")
	sc.str(sk.floorplan)
	sc.str(strategyDigest)
	sk.scripts = sc.sum()

	// Synthesis keys are the upstream addresses of the implementation
	// stage: the checkpoint cache's own content digests.
	staticSynthKey := tool.CheckpointKey(BuildStaticTop(d), false)
	synthKey := make(map[string]string, len(d.RPs))
	for _, rp := range d.RPs {
		synthKey[rp.Name] = tool.CheckpointKey(rp.Content, true)
	}

	switch strat.Kind {
	case core.Serial:
		// The serial run implements everything in one instance, so every
		// partition's content is an input.
		se := newArtifactDigest("impl/serial/v1")
		se.str(sk.floorplan)
		se.str(strategyDigest)
		se.res(d.StaticResources.Add(d.ReconfigurableResources()))
		se.u64(uint64(len(d.RPs)))
		se.str(staticSynthKey)
		for _, rp := range d.RPs {
			se.str(synthKey[rp.Name])
		}
		sk.serial = se.sum()
	default:
		// Static pre-route: floorplan plus the static checkpoint and the
		// reconfigurable envelope — no partition content, so kernel edits
		// never invalidate it.
		st := newArtifactDigest("impl/static/v1")
		st.str(sk.floorplan)
		st.str(staticSynthKey)
		st.res(d.ReconfigurableResources())
		sk.implStatic = st.sum()

		sk.groups = make([]string, len(strat.Groups))
		for gi, group := range strat.Groups {
			gr := newArtifactDigest("impl/group/v1")
			gr.str(sk.implStatic)
			gr.str(strategyDigest)
			gr.u64(uint64(gi))
			for _, name := range group {
				gr.str(name)
				gr.str(synthKey[name])
			}
			sk.groups[gi] = gr.sum()
		}
	}

	// Full-device bitstream: static + placeholder partitions, so it
	// hangs off the static implementation (or the serial run), never a
	// partition's content.
	bf := newArtifactDigest("bitgen/full/v1")
	bf.str(d.Cfg.Name)
	bf.res(d.StaticResources.Add(d.ReconfigurableResources()))
	bf.res(d.Dev.Total)
	bf.flag(opt.Compress)
	if strat.Kind == core.Serial {
		bf.str(sk.serial)
	} else {
		bf.str(sk.implStatic)
	}
	sk.bitgenFull = bf.sum()

	// Partial bitstreams hang off the implementation run that produced
	// their partition — the unit of incremental invalidation.
	for gi, group := range strat.Groups {
		for _, name := range group {
			sk.partials[name] = partialKey(sk.groups[gi], name, d, opt.Compress)
		}
	}
	if strat.Kind == core.Serial {
		for _, rp := range d.RPs {
			sk.partials[rp.Name] = partialKey(sk.serial, rp.Name, d, opt.Compress)
		}
	}
	return sk
}

// The accessors below are nil-safe: a nil *stageKeys (caching disabled)
// yields empty keys, which cachedStage treats as "no probe".

func (sk *stageKeys) floorplanKey() string {
	if sk == nil {
		return ""
	}
	return sk.floorplan
}

func (sk *stageKeys) scriptsKey() string {
	if sk == nil {
		return ""
	}
	return sk.scripts
}

func (sk *stageKeys) implStaticKey() string {
	if sk == nil {
		return ""
	}
	return sk.implStatic
}

func (sk *stageKeys) serialKey() string {
	if sk == nil {
		return ""
	}
	return sk.serial
}

func (sk *stageKeys) groupKey(gi int) string {
	if sk == nil || gi < 0 || gi >= len(sk.groups) {
		return ""
	}
	return sk.groups[gi]
}

func (sk *stageKeys) bitgenFullKey() string {
	if sk == nil {
		return ""
	}
	return sk.bitgenFull
}

func (sk *stageKeys) partialKeyFor(rpName string) string {
	if sk == nil {
		return ""
	}
	return sk.partials[rpName]
}

// partialKey derives one partition's partial-bitstream key from its
// implementation run's key and the envelope the bitstream spans.
func partialKey(implKey, rpName string, d *socgen.Design, compress bool) string {
	bp := newArtifactDigest("bitgen/partial/v1")
	bp.str(implKey)
	bp.str(rpName)
	bp.str(d.Cfg.Name)
	for _, rp := range d.RPs {
		if rp.Name == rpName {
			bp.res(rp.Resources)
		}
	}
	bp.flag(compress)
	return bp.sum()
}

// stageEnvelope is the JSON body a stage artifact persists: the job's
// modelled duration plus its stage-specific payload.
type stageEnvelope struct {
	Minutes vivado.Minutes  `json:"minutes"`
	Payload json.RawMessage `json:"payload"`
}

// cachedStage wraps one job's work function with its stage-artifact
// probe/store pair. run produces the stage value and its modelled
// minutes; apply publishes the value into the run's result exactly as a
// live execution would (it is called from worker goroutines under the
// scheduler's happens-before, like the run body itself). On a probe hit
// the scheduler skips run entirely; on a miss (or with no cache/key)
// the wrapped run executes, publishes, and stores the artifact
// write-through. A cached body that fails to decode reports a miss —
// the disk tier already quarantines corrupt files, and an in-memory
// decode failure just re-runs the job.
func cachedStage[T any](sk *stageKeys, key string, run func(ctx context.Context) (T, vivado.Minutes, error), apply func(T, vivado.Minutes)) (probe func() (vivado.Minutes, bool), wrapped func(ctx context.Context) (vivado.Minutes, error)) {
	wrapped = func(ctx context.Context) (vivado.Minutes, error) {
		v, t, err := run(ctx)
		if err != nil {
			return 0, err
		}
		apply(v, t)
		if sk != nil && key != "" {
			if payload, err := json.Marshal(v); err == nil {
				body, err := json.Marshal(stageEnvelope{Minutes: t, Payload: payload})
				if err == nil {
					// Best-effort write-through: a full disk loses the
					// artifact, never the run.
					sk.cache.Store(key, body) //nolint:errcheck
				}
			}
		}
		return t, nil
	}
	if sk == nil || key == "" {
		return nil, wrapped
	}
	probe = func() (vivado.Minutes, bool) {
		body, ok := sk.cache.Lookup(key)
		if !ok {
			return 0, false
		}
		var env stageEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			return 0, false
		}
		var v T
		if err := json.Unmarshal(env.Payload, &v); err != nil {
			return 0, false
		}
		apply(v, env.Minutes)
		return env.Minutes, true
	}
	return probe, wrapped
}

// DesignDigest fingerprints the parts of a design cached results depend
// on: configuration name, device identity and capacity, the static
// module set and every partition's name, content and resource envelope.
// The flow service folds it into its single-flight spec key.
func DesignDigest(d *socgen.Design) string {
	h := fnv.New64a()
	var buf [8]byte
	ws := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0xff}) // separator: ("ab","c") != ("a","bc")
	}
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ws(d.Cfg.Name)
	ws(d.Dev.Name)
	for _, n := range d.Dev.Total {
		wu(uint64(n))
	}
	for _, m := range d.StaticModules {
		ws(m.Name)
		for _, n := range m.TotalCost() {
			wu(uint64(n))
		}
	}
	for _, rp := range d.RPs {
		ws(rp.Name)
		if rp.Content != nil {
			ws(rp.Content.Name)
		}
		for _, n := range rp.Resources {
			wu(uint64(n))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
