package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"presp/internal/bitstream"
	"presp/internal/flow"
	"presp/internal/fpga"
	"presp/internal/noc"
	"presp/internal/sim"
	"presp/internal/socgen"
	"presp/internal/vivado"
	"presp/internal/wami"
)

// The replays below time single layers through their public entry
// points, on the inputs the workload's own runs used. They run after
// the legs, so they never disturb an end-to-end measurement.

// samples collects timing samples per metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// replayArtifacts times the vivado stage-cache and disk-tier entry
// points on every stage artifact a visit left in dir.
func replayArtifacts(dir, storeDir string, s samples) error {
	bodies, err := readArtifacts(dir)
	if err != nil {
		return err
	}
	keys := sortedKeys(bodies)
	total := 0
	sc := vivado.NewStageCache()
	for _, k := range keys {
		total += len(bodies[k])
		t0 := time.Now()
		if err := sc.Store(k, bodies[k]); err != nil {
			return err
		}
		s.add("vivado.stage_store_ms", ms(time.Since(t0)))
	}
	for _, k := range keys {
		t0 := time.Now()
		_, ok := sc.Lookup(k)
		s.add("vivado.stage_lookup_ms", ms(time.Since(t0)))
		if !ok {
			return fmt.Errorf("stage artifact %s missing after store", k)
		}
	}
	fresh, err := vivado.OpenDiskStore(dir)
	if err != nil {
		return err
	}
	for _, k := range keys {
		t0 := time.Now()
		_, ok := fresh.LoadArtifact(k)
		s.add("vivado.disk_load_ms", ms(time.Since(t0)))
		if !ok {
			return fmt.Errorf("artifact %s does not load", k)
		}
	}
	out, err := vivado.OpenDiskStore(storeDir)
	if err != nil {
		return err
	}
	for _, k := range keys {
		t0 := time.Now()
		if err := out.StoreArtifact(k, bodies[k]); err != nil {
			return err
		}
		s.add("vivado.disk_store_ms", ms(time.Since(t0)))
	}
	s.add("vivado.stage_bytes", float64(total))
	return os.RemoveAll(storeDir)
}

// readArtifacts loads the stage-artifact bodies a disk dir holds, keyed
// by the file name without its .art extension.
func readArtifacts(dir string) (map[string][]byte, error) {
	ds, err := vivado.OpenDiskStore(dir)
	if err != nil {
		return nil, err
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.art"))
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for _, n := range names {
		key := strings.TrimSuffix(filepath.Base(n), ".art")
		body, ok := ds.LoadArtifact(key)
		if !ok {
			return nil, fmt.Errorf("artifact %s does not load", key)
		}
		out[key] = body
	}
	return out, nil
}

// replayBitstreams re-renders a flow result's images uncompressed with
// the bitstream generator, then compresses each with CompressRLE and
// checks the output against the image the flow produced.
func replayBitstreams(d *socgen.Design, res *flow.Result, s samples) error {
	if res.Plan == nil {
		return fmt.Errorf("%s: result has no floorplan", d.Cfg.Name)
	}
	gen := bitstream.NewGenerator(d.Dev)
	produced := map[string]*bitstream.Bitstream{}
	for _, bs := range append([]*bitstream.Bitstream{res.FullBitstream}, res.PartialBitstreams...) {
		if bs != nil {
			produced[bs.Name] = bs
		}
	}
	type image struct {
		name   string
		render func() (*bitstream.Bitstream, error)
	}
	var images []image
	total := d.StaticResources.Add(d.ReconfigurableResources())
	fullName := d.Cfg.Name + ".bit"
	images = append(images, image{fullName, func() (*bitstream.Bitstream, error) {
		return gen.FullDevice(fullName, total[fpga.LUT], false)
	}})
	for _, rp := range d.RPs {
		rp := rp
		pb, ok := res.Plan.Pblocks[rp.Name]
		if !ok {
			return fmt.Errorf("%s: no pblock for %s", d.Cfg.Name, rp.Name)
		}
		name := fmt.Sprintf("%s.%s.pbs", d.Cfg.Name, rp.Name)
		images = append(images, image{name, func() (*bitstream.Bitstream, error) {
			return gen.Partial(name, pb, rp.Resources[fpga.LUT], false)
		}})
	}
	alloc0 := allocMB()
	for _, im := range images {
		t0 := time.Now()
		raw, err := im.render()
		if err != nil {
			return err
		}
		t1 := time.Now()
		packed := bitstream.CompressRLE(raw.Data)
		t2 := time.Now()
		s.add("bitstream.render_ms", ms(t1.Sub(t0)))
		s.add("bitstream.rle_ms", ms(t2.Sub(t1)))
		want, ok := produced[im.name]
		if !ok {
			return fmt.Errorf("flow produced no image %s", im.name)
		}
		if string(packed) != string(want.Data) {
			return fmt.Errorf("%s: re-rendered image differs from the flow's", im.name)
		}
	}
	s.add("bitstream.alloc_mb_per_image", (allocMB()-alloc0)/float64(len(images)))
	return nil
}

// replaySynth times out-of-context synthesis of every partition's
// content on a cache-free tool.
func replaySynth(ctx context.Context, d *socgen.Design, s samples) error {
	tool, err := vivado.New(d.Dev, nil)
	if err != nil {
		return err
	}
	for _, rp := range d.RPs {
		if rp.Content == nil {
			continue
		}
		t0 := time.Now()
		if _, err := tool.Synthesize(ctx, rp.Content, true, rp.Name); err != nil {
			return err
		}
		s.add("vivado.synth_ms", ms(time.Since(t0)))
	}
	return nil
}

// replayDispatch times the job-graph scheduler on no-op jobs: a
// fan-out of n jobs between one source and one sink, the flow's graph
// shape.
func replayDispatch(ctx context.Context, workers, n int, s samples) error {
	g := flow.NewGraph()
	noop := func(context.Context) (vivado.Minutes, error) { return 0, nil }
	if err := g.Add("src", flow.StageSynth, nil, noop); err != nil {
		return err
	}
	mid := make([]string, n)
	for i := range mid {
		mid[i] = fmt.Sprintf("job-%d", i)
		if err := g.Add(mid[i], flow.StageImpl, []string{"src"}, noop); err != nil {
			return err
		}
	}
	if err := g.Add("sink", flow.StageBitgen, mid, noop); err != nil {
		return err
	}
	t0 := time.Now()
	if _, _, err := g.ExecuteCtx(ctx, flow.ExecOptions{Workers: workers}); err != nil {
		return err
	}
	s.add("flow.dispatch_us_per_job", us(time.Since(t0))/float64(n+2))
	return nil
}

// replayReconfig times partial reconfigurations from outside the
// runtime: each request plus the engine run that completes it. It
// mutates the runtime, so it runs after the leg's counts are taken.
func replayReconfig(r *simRuntime, s samples) error {
	for _, tile := range r.rt.Tiles() {
		accs, err := r.rt.RegisteredBitstreams(tile)
		if err != nil {
			return err
		}
		for round := 0; round < 2; round++ {
			for _, acc := range accs {
				var rerr error
				t0 := time.Now()
				r.rt.RequestReconfig(tile, acc, func(err error) { rerr = err })
				r.rt.Engine().Run(0)
				s.add("reconfig.host_us_per_reconfig", us(time.Since(t0)))
				if rerr != nil {
					return fmt.Errorf("reconfigure %s to %s: %w", tile, acc, rerr)
				}
			}
		}
	}
	return nil
}

// replayNoC times bitstream-sized DMA transfers across the runtime's
// mesh, corner to corner.
func replayNoC(r *simRuntime, s samples) error {
	var sizes []int
	for _, m := range r.bss {
		for _, bs := range m {
			sizes = append(sizes, bs.Size())
		}
	}
	sort.Ints(sizes)
	if len(sizes) == 0 {
		return fmt.Errorf("%s: no bitstreams", r.cfg.name)
	}
	n := r.rt.Network()
	src, dst := noc.Coord{X: 0, Y: 0}, noc.Coord{X: n.Cols() - 1, Y: n.Rows() - 1}
	for i := 0; i < 64; i++ {
		t0 := time.Now()
		if _, err := n.Transfer(noc.PlaneDMA, src, dst, sizes[len(sizes)/2]); err != nil {
			return err
		}
		s.add("noc.transfer_us", us(time.Since(t0)))
	}
	return nil
}

// replayEngine times the discrete-event engine on a chain of n events,
// each scheduling the next.
func replayEngine(n int, s samples) error {
	eng := sim.NewEngine()
	left := n
	var schedErr error
	var step func()
	step = func() {
		if left--; left > 0 && schedErr == nil {
			schedErr = eng.Schedule(time.Microsecond, step)
		}
	}
	if err := eng.Schedule(0, step); err != nil {
		return err
	}
	t0 := time.Now()
	ran := eng.Run(0)
	s.add("sim.events_per_host_s", float64(ran)/time.Since(t0).Seconds())
	if schedErr != nil {
		return schedErr
	}
	if ran != n {
		return fmt.Errorf("engine ran %d of %d events", ran, n)
	}
	return nil
}

// replayKernels times each WAMI software kernel on a generated frame
// stream.
func replayKernels(b simBatch, frames int, s samples) error {
	src, err := wami.NewFrameSource(simEdge, b.dx, b.dy, b.targets)
	if err != nil {
		return err
	}
	pcfg := wami.DefaultPipelineConfig()
	var prev, bg *wami.Image
	timeIt := func(name string, fn func()) {
		t0 := time.Now()
		fn()
		s.add("wami."+name+"_ms", ms(time.Since(t0)))
	}
	for i := 0; i < frames; i++ {
		var mosaic, r, g, bl, gray *wami.Image
		timeIt("frame-source", func() { mosaic = src.Next() })
		timeIt("debayer", func() { r, g, bl = wami.Debayer(mosaic) })
		timeIt("grayscale", func() { gray = wami.Grayscale(r, g, bl) })
		if prev == nil {
			prev, bg = gray, gray.Clone()
			continue
		}
		var gx, gy *wami.Image
		var sd [6]*wami.Image
		timeIt("gradient", func() { gx, gy = wami.Gradient(prev) })
		timeIt("steepest-descent", func() { sd = wami.SteepestDescent(gx, gy) })
		timeIt("hessian", func() { _ = wami.Hessian(sd) })
		var warped *wami.Image
		p := wami.Affine{0, 0, 0, 0, -b.dx, -b.dy}
		timeIt("warp", func() { warped = wami.Warp(gray, p) })
		timeIt("sd-update", func() { _ = wami.SDUpdate(sd, wami.Subtract(warped, prev)) })
		var lkErr error
		timeIt("lucas-kanade", func() { _, _, lkErr = wami.LucasKanade(prev, gray, simLKIters, pcfg.LKEpsilon) })
		if lkErr != nil {
			return lkErr
		}
		timeIt("change-detection", func() { _, bg = wami.ChangeDetection(warped, bg, pcfg.CDThreshold, pcfg.CDAlpha) })
		prev = gray
	}
	return nil
}

// replayCRC times the fetch-path checksum over every runtime bitstream.
func replayCRC(rts []*simRuntime, s samples) {
	seen := map[*bitstream.Bitstream]bool{}
	for _, r := range rts {
		for _, m := range r.bss {
			for _, bs := range m {
				if seen[bs] {
					continue
				}
				seen[bs] = true
				t0 := time.Now()
				_ = bs.CRC()
				s.add("bitstream.crc_ms", ms(time.Since(t0)))
			}
		}
	}
}

// kernelBatch draws the frame stream the kernel replay uses.
func kernelBatch(seed int64) simBatch {
	return genSimBatches(rand.New(rand.NewSource(seed^0x5eed)), 1)[0]
}

// storeDir names a fresh directory for the disk-store write replay.
func storeDir(tmp string, i int) string { return filepath.Join(tmp, fmt.Sprintf("store-%d", i)) }
