package vivado

import (
	"context"
	"fmt"
	"sync/atomic"

	"presp/internal/bitstream"
	"presp/internal/faultinject"
	"presp/internal/fpga"
	"presp/internal/obs"
	"presp/internal/rtl"
)

// Tool is one simulated CAD installation bound to a target device and a
// runtime cost model. Methods correspond to the script steps the real
// flow auto-generates; each returns what the step produces plus the
// modelled runtime.
//
// Every entry point takes a context.Context and checks it before doing
// any work, so a cancelled or timed-out flow stops at the next job
// boundary; it then consults the optional FaultHook, the seam the flow
// uses to inject deterministic CAD failures (tool crashes, license
// drops) from a faultinject plan.
//
// A Tool is safe for concurrent use: device, model, generator, cache
// and fault hook are read-only after setup, the optional checkpoint
// cache locks internally, and the hit/miss counters are atomic — the
// flow's worker pool drives one shared instance from many goroutines.
type Tool struct {
	dev   *fpga.Device
	model *CostModel
	gen   *bitstream.Generator

	cache       *CheckpointCache
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	fault FaultHook

	// Instruments pre-resolved by SetObserver; all nil without an
	// observer, and every method of a nil instrument no-ops.
	mCacheHits   *obs.Counter
	mCacheMisses *obs.Counter
	mSynth       *obs.Histogram
	mPreroute    *obs.Histogram
	mImpl        *obs.Histogram
	mBitgen      *obs.Histogram
}

// FaultHook intercepts one CAD operation before it runs. A non-nil
// returned error fails the operation (the flow's retry policy then
// decides whether to re-run it). The first site is the operation's
// primary site; faultinject.StableInjector.Check satisfies this
// signature directly.
type FaultHook func(op faultinject.Op, sites ...string) error

// New builds a tool for device d with cost model m (nil selects the
// calibrated default).
func New(d *fpga.Device, m *CostModel) (*Tool, error) {
	if d == nil {
		return nil, fmt.Errorf("vivado: nil device")
	}
	if m == nil {
		m = DefaultCostModel()
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Tool{dev: d, model: m, gen: bitstream.NewGenerator(d)}, nil
}

// Device returns the target device.
func (t *Tool) Device() *fpga.Device { return t.dev }

// Model returns the cost model in use.
func (t *Tool) Model() *CostModel { return t.model }

// SetCache attaches a shared synthesis-checkpoint cache (nil detaches).
// Subsequent Synthesize calls consult it before paying the modelled
// synthesis cost and populate it on misses.
func (t *Tool) SetCache(c *CheckpointCache) { t.cache = c }

// Cache returns the attached synthesis-checkpoint cache (nil when none
// is attached).
func (t *Tool) Cache() *CheckpointCache { return t.cache }

// SetFaultHook attaches a CAD fault-injection hook (nil detaches). Set
// it before sharing the tool across goroutines.
func (t *Tool) SetFaultHook(h FaultHook) { t.fault = h }

// SetObserver attaches an observability handle: per-op cost-model
// runtime histograms and checkpoint-cache traffic counters (nil
// detaches). Like the fault hook, set it before sharing the tool
// across goroutines; nothing observed influences modelled results.
func (t *Tool) SetObserver(o *obs.Observer) {
	reg := o.Metrics()
	t.mCacheHits = reg.Counter("vivado_cache_hits_total")
	t.mCacheMisses = reg.Counter("vivado_cache_misses_total")
	t.mSynth = reg.Histogram("vivado_synth_minutes")
	t.mPreroute = reg.Histogram("vivado_preroute_minutes")
	t.mImpl = reg.Histogram("vivado_impl_minutes")
	t.mBitgen = reg.Histogram("vivado_bitgen_minutes")
}

// CheckFault is the gate every entry point passes through: it fails
// fast when ctx is cancelled or past its deadline, then gives the fault
// hook a chance to crash the operation. Flow steps that live outside
// this package (floorplanning) call it directly so the whole
// compile-time surface shares one injection discipline.
func (t *Tool) CheckFault(ctx context.Context, op faultinject.Op, sites ...string) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if t.fault == nil {
		return nil
	}
	return t.fault(op, sites...)
}

// CacheStats returns this tool's synthesis cache hits and misses (both
// zero when no cache is attached).
func (t *Tool) CacheStats() (hits, misses int64) {
	return t.cacheHits.Load(), t.cacheMisses.Load()
}

// CheckpointKey returns the content-addressed cache key a synthesis of
// m would use on this tool — the digest of everything the run depends
// on. The flow folds it into the stage-artifact keys downstream of each
// synthesis job.
func (t *Tool) CheckpointKey(m *rtl.Module, ooc bool) string {
	return checkpointKey(t.dev, t.model, m, ooc)
}

// SynthCheckpoint is the product of a synthesis run. All fields are
// exported and JSON-serializable so the disk tier can persist completed
// checkpoints across restarts.
type SynthCheckpoint struct {
	// Name is the synthesized module name.
	Name string
	// Resources is the post-synthesis utilization.
	Resources fpga.Resources
	// OoC records out-of-context mode.
	OoC bool
	// Runtime is the modelled synthesis time.
	Runtime Minutes
	// BlackBoxes lists black-box instances left unresolved (the
	// reconfigurable partitions of a static synthesis).
	BlackBoxes []string
}

// Synthesize runs synthesis on module m. In OoC mode the module is
// compiled against its own interface; otherwise black boxes are
// permitted only for declared reconfigurable partitions. Optional sites
// label the run for fault injection (the flow passes the partition
// name); the module name is always appended as a matchable site.
func (t *Tool) Synthesize(ctx context.Context, m *rtl.Module, ooc bool, sites ...string) (*SynthCheckpoint, error) {
	if m == nil {
		return nil, fmt.Errorf("vivado: synthesize nil module")
	}
	if err := t.CheckFault(ctx, faultinject.OpCADSynth, append(append([]string(nil), sites...), m.Name)...); err != nil {
		return nil, err
	}
	if t.cache == nil {
		return t.synthesize(m, ooc)
	}
	// Single-flight through the cache: concurrent misses on the same
	// content collapse to one leader synthesis; followers share the
	// leader's checkpoint (or its error) and count as hits.
	key := checkpointKey(t.dev, t.model, m, ooc)
	ck, role, err := t.cache.materialize(key, func() (*SynthCheckpoint, error) {
		return t.synthesize(m, ooc)
	})
	switch role {
	case roleLeader:
		t.cacheMisses.Add(1)
		t.mCacheMisses.Inc()
	case roleHit, roleFollower:
		if err == nil {
			t.cacheHits.Add(1)
			t.mCacheHits.Inc()
		}
	}
	return ck, err
}

// synthesize is the cache-free synthesis body: the modelled cost of one
// run, shared by the direct path and the materialize leader.
func (t *Tool) synthesize(m *rtl.Module, ooc bool) (*SynthCheckpoint, error) {
	ck := &SynthCheckpoint{Name: m.Name, OoC: ooc}
	m.Walk(func(path string, mod *rtl.Module) {
		if mod.BlackBox {
			ck.BlackBoxes = append(ck.BlackBoxes, path)
		}
	})
	ck.Resources = m.TotalCost()
	if ck.Resources[fpga.LUT] == 0 && len(ck.BlackBoxes) == 0 {
		return nil, fmt.Errorf("vivado: module %s synthesizes to nothing", m.Name)
	}
	if ck.Resources[fpga.LUT] > t.dev.Total[fpga.LUT] {
		return nil, fmt.Errorf("vivado: module %s needs %d LUTs, device %s has %d",
			m.Name, ck.Resources[fpga.LUT], t.dev.Name, t.dev.Total[fpga.LUT])
	}
	ck.Runtime = t.model.SynthTime(kluts(ck.Resources), ooc)
	t.mSynth.Observe(float64(ck.Runtime))
	return ck, nil
}

// CheckDFX performs the design rule checks the DFX flow enforces on a
// reconfigurable module and its assigned pblock: no clock-modifying
// logic, no route-through clock outputs, and the pblock must cover the
// module's resource needs.
func (t *Tool) CheckDFX(ctx context.Context, content *rtl.Module, need fpga.Resources, pb fpga.Pblock) error {
	drcSites := []string{pb.Name}
	if content != nil {
		drcSites = append(drcSites, content.Name)
	}
	if err := t.CheckFault(ctx, faultinject.OpCADDRC, drcSites...); err != nil {
		return err
	}
	if content != nil {
		if content.ContainsClockModifying() {
			return fmt.Errorf("vivado: DRC HDPR-1: %s contains clock-modifying logic inside a reconfigurable partition", content.Name)
		}
		if content.DrivesClockOut() {
			return fmt.Errorf("vivado: DRC HDPR-2: %s drives a route-through clock output from a reconfigurable partition", content.Name)
		}
	}
	if err := pb.Validate(t.dev); err != nil {
		return err
	}
	avail := pb.ResourcesOn(t.dev)
	if !avail.Covers(need) {
		return fmt.Errorf("vivado: DRC HDPR-3: pblock %s (%s) cannot host %s",
			pb.Name, avail, need)
	}
	return nil
}

// RoutedStatic is the routed static-only design (with place-holder hard
// macros in every reconfigurable partition), the anchor for in-context
// runs.
type RoutedStatic struct {
	// DesignName labels the design.
	DesignName string
	// StaticResources is the static-part utilization.
	StaticResources fpga.Resources
	// Pblocks maps partition name to its reserved placement region.
	Pblocks map[string]fpga.Pblock
	// ReconfContent is the total utilization of the design's
	// reconfigurable modules (carried in the checkpoint as place-holder
	// macros and partition metadata; drives the load cost of in-context
	// runs).
	ReconfContent fpga.Resources
	// Runtime is the modelled pre-route time (t_static in the paper).
	Runtime Minutes
}

// rpAreaLUTs sums the fabric LUTs reserved by all pblocks.
func (rs *RoutedStatic) rpAreaLUTs(d *fpga.Device) int {
	sum := 0
	for _, pb := range rs.Pblocks {
		sum += pb.ResourcesOn(d)[fpga.LUT]
	}
	return sum
}

// RPFraction returns the fraction of the device fabric reserved for
// reconfigurable partitions.
func (rs *RoutedStatic) RPFraction(d *fpga.Device) float64 {
	return float64(rs.rpAreaLUTs(d)) / float64(d.Total[fpga.LUT])
}

// PreRouteStatic places and routes the static checkpoint with empty
// place-holder macros inside every pblock (the intermediate step of the
// parallel strategies; the empty netlists are prepared offline so they
// add no timing overhead, per Section IV).
func (t *Tool) PreRouteStatic(ctx context.Context, designName string, static *SynthCheckpoint, pblocks map[string]fpga.Pblock, reconfContent fpga.Resources) (*RoutedStatic, error) {
	if static == nil {
		return nil, fmt.Errorf("vivado: nil static checkpoint")
	}
	if err := t.CheckFault(ctx, faultinject.OpCADImpl, "static", designName); err != nil {
		return nil, err
	}
	if len(pblocks) == 0 {
		return nil, fmt.Errorf("vivado: static pre-route of %s has no reconfigurable partitions", designName)
	}
	rs := &RoutedStatic{
		DesignName:      designName,
		StaticResources: static.Resources,
		Pblocks:         pblocks,
		ReconfContent:   reconfContent,
	}
	// The pblocks must not overlap each other.
	names := make([]string, 0, len(pblocks))
	for n := range pblocks {
		names = append(names, n)
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			a, b := pblocks[names[i]], pblocks[names[j]]
			if a.Overlaps(b) {
				return nil, fmt.Errorf("vivado: pblocks %s and %s overlap", a.Name, b.Name)
			}
		}
	}
	rpFrac := rs.RPFraction(t.dev)
	staticK := kluts(static.Resources)
	// The static part plus the reserved area must fit the device.
	if staticK*1000+float64(rs.rpAreaLUTs(t.dev)) > float64(t.dev.Total[fpga.LUT]) {
		return nil, fmt.Errorf("vivado: design %s: static part (%0.fk LUTs) plus reserved pblocks (%.0f%% of fabric) exceed device %s",
			designName, staticK, rpFrac*100, t.dev.Name)
	}
	rs.Runtime = t.model.StaticPreRouteTime(staticK, rpFrac, len(pblocks))
	t.mPreroute.Observe(float64(rs.Runtime))
	return rs, nil
}

// SerialResult is the product of a τ=1 whole-design implementation.
type SerialResult struct {
	DesignName string
	Runtime    Minutes
}

// ImplementSerial places and routes the whole design — static part plus
// every reconfigurable module — in a single instance.
func (t *Tool) ImplementSerial(ctx context.Context, designName string, totalRes fpga.Resources, nRP int, rpFrac float64) (*SerialResult, error) {
	if err := t.CheckFault(ctx, faultinject.OpCADImpl, designName, "serial"); err != nil {
		return nil, err
	}
	if totalRes[fpga.LUT] <= 0 {
		return nil, fmt.Errorf("vivado: serial implementation of empty design %s", designName)
	}
	if totalRes[fpga.LUT] > t.dev.Total[fpga.LUT] {
		return nil, fmt.Errorf("vivado: design %s needs %d LUTs, device %s has %d",
			designName, totalRes[fpga.LUT], t.dev.Name, t.dev.Total[fpga.LUT])
	}
	sr := &SerialResult{
		DesignName: designName,
		Runtime:    t.model.SerialImplTime(kluts(totalRes), nRP, rpFrac),
	}
	t.mImpl.Observe(float64(sr.Runtime))
	return sr, nil
}

// ContextResult is the product of one in-context P&R run implementing a
// group of reconfigurable modules against the routed static.
type ContextResult struct {
	// Group lists the implemented partition names.
	Group []string
	// Runtime is the modelled run time (one Ω_i of the paper).
	Runtime Minutes
}

// ImplementInContext implements the named partitions (with module
// checkpoints cks, one per partition) against routed static rs.
func (t *Tool) ImplementInContext(ctx context.Context, rs *RoutedStatic, group []string, cks map[string]*SynthCheckpoint) (*ContextResult, error) {
	if rs == nil {
		return nil, fmt.Errorf("vivado: in-context run without a routed static")
	}
	if len(group) == 0 {
		return nil, fmt.Errorf("vivado: empty in-context group")
	}
	if err := t.CheckFault(ctx, faultinject.OpCADImpl, append(append([]string(nil), group...), rs.DesignName)...); err != nil {
		return nil, err
	}
	var groupK float64
	for _, name := range group {
		ck, ok := cks[name]
		if !ok {
			return nil, fmt.Errorf("vivado: no synthesis checkpoint for partition %q", name)
		}
		pb, ok := rs.Pblocks[name]
		if !ok {
			return nil, fmt.Errorf("vivado: routed static %s has no pblock for partition %q", rs.DesignName, name)
		}
		if !pb.ResourcesOn(t.dev).Covers(ck.Resources) {
			return nil, fmt.Errorf("vivado: partition %q (%s) does not fit pblock %s",
				name, ck.Resources, pb.Name)
		}
		groupK += kluts(ck.Resources)
	}
	cr := &ContextResult{
		Group:   append([]string(nil), group...),
		Runtime: t.model.InContextImplTime(groupK, kluts(rs.StaticResources), kluts(rs.ReconfContent)),
	}
	t.mImpl.Observe(float64(cr.Runtime))
	return cr, nil
}

// WritePartialBitstream generates the compressed partial bitstream for
// partition name implemented in pblock pb with the given utilization.
func (t *Tool) WritePartialBitstream(ctx context.Context, name string, pb fpga.Pblock, used fpga.Resources, compress bool) (*bitstream.Bitstream, Minutes, error) {
	if err := t.CheckFault(ctx, faultinject.OpCADBitgen, pb.Name, name); err != nil {
		return nil, 0, err
	}
	bs, err := t.gen.Partial(name, pb, used[fpga.LUT], compress)
	if err != nil {
		return nil, 0, err
	}
	areaK := float64(pb.ResourcesOn(t.dev)[fpga.LUT]) / 1000.0
	mins := t.model.BitgenTime(areaK)
	t.mBitgen.Observe(float64(mins))
	return bs, mins, nil
}

// WriteFullBitstream generates the full-device bitstream.
func (t *Tool) WriteFullBitstream(ctx context.Context, name string, used fpga.Resources, compress bool) (*bitstream.Bitstream, Minutes, error) {
	if err := t.CheckFault(ctx, faultinject.OpCADBitgen, "full", name); err != nil {
		return nil, 0, err
	}
	bs, err := t.gen.FullDevice(name, used[fpga.LUT], compress)
	if err != nil {
		return nil, 0, err
	}
	mins := t.model.BitgenTime(kluts(t.dev.Total))
	t.mBitgen.Observe(float64(mins))
	return bs, mins, nil
}

// kluts converts a resource vector's LUT count to kLUT.
func kluts(r fpga.Resources) float64 { return float64(r[fpga.LUT]) / 1000.0 }
