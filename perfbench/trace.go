package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"presp/internal/obs"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Start and End are nanoseconds since the trace began.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Op     int64  `json:"op"`     // operation the span belongs to
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// valid and records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(layer, name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already-finished span.
func (t *tracer) add(layer, name string, parent int, op int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Layer: layer,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Op: op})
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(layer, name string, parent int, op int64, fn func()) {
	id := t.begin(layer, name, parent, op)
	fn()
	t.end(id)
}

// flowStageLayer maps a flow job stage to the layer whose code the job
// runs: synthesis and place-and-route are the vivado tool model,
// floorplanning the floorplanner, bitstream generation the renderer.
var flowStageLayer = map[string]string{
	"synth":  "vivado",
	"plan":   "floorplan",
	"impl":   "vivado",
	"bitgen": "bitstream",
}

// importJobSpans copies the scheduler's job spans from a flow run's
// observer into the trace as children of parent. The observer's clock
// counts microseconds from its creation at observed.
func (t *tracer) importJobSpans(o *obs.Observer, observed time.Time, parent int, op int64) {
	if t == nil || o == nil {
		return
	}
	for _, ev := range o.Tracer().Events() {
		if ev.Phase != "X" || ev.Cat != "job" {
			continue
		}
		stage, _ := ev.Args["stage"].(string)
		layer := flowStageLayer[stage]
		if layer == "" {
			layer = "flow"
		}
		start := observed.Add(time.Duration(ev.TS) * time.Microsecond)
		t.add(layer, "job."+stage, parent, op, start, start.Add(time.Duration(ev.Dur)*time.Microsecond))
	}
}

// selfTimes returns each layer's self time in ms: a span's duration
// minus the part of its interval its children cover (children of one
// span may overlap when they ran on parallel workers, so the covered
// part is the union of their intervals).
func (t *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - covered(children[i], s.Start, s.End)
		out[s.Layer] += float64(self) / 1e6
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max64(iv[0], cur), min64(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// len returns the number of recorded spans.
func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write saves the spans as one JSON document.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
