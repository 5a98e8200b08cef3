package faultinject

import (
	"fmt"
	"math/rand"
	"testing"
)

// FuzzInjector throws arbitrary fault-plan strings at the parser and,
// for every plan that parses, checks the property the flow engine and
// the runtime build on: for all twelve ops, the set of injected faults
// is a pure function of the plan and the per-site check sequences —
// cross-site interleaving (goroutine scheduling in the flow's worker
// pool, the order tiles' events land in the runtime) must not change
// which (op, site, occurrence) triples fault.
func FuzzInjector(f *testing.F) {
	f.Add(uint64(1), "synth@rt_1:count=1")
	f.Add(uint64(7), "seed=5,impl=0.4,bitgen=0.5")
	f.Add(uint64(9), "floorplan:after=1,drc@rt_2:count=-1")
	f.Add(uint64(42), "synth=1.0,impl@static:count=2,bitgen@full=0.3:count=1")
	f.Add(uint64(3), "seed=11,synth=0.9,drc=0.1:after=2")
	f.Add(uint64(5), "transfer@dma=0.5,crc=0.3")
	f.Add(uint64(8), "icap@rt_1:count=1,kernel=0.4")
	f.Add(uint64(13), "seed=2,seu@rt_2=0.2,decouple:after=1,recouple@fft:count=-1")
	f.Fuzz(func(t *testing.T, seed uint64, spec string) {
		if len(spec) > 128 {
			t.Skip()
		}
		plan, err := ParsePlan(spec) // must never panic, whatever the input
		if err != nil {
			t.Skip() // malformed plans are rejected at parse time
		}
		sites := []string{"static", "rt_1", "rt_2", "full", "dma", "fft"}
		const perSite = 3
		drive := func(rng *rand.Rand) string {
			in, err := New(*plan)
			if err != nil {
				t.Fatalf("parsed plan rejected by New: %v", err)
			}
			// Per-site order is fixed (a flow job or the runtime's event
			// order serializes checks at one site); cross-site and
			// cross-op interleaving is shuffled. Each check also lists a
			// secondary site, fixed per (site, occurrence), so rules that
			// name a secondary site are exercised too.
			type check struct {
				op   Op
				site string
			}
			var order []check
			for op := Op(0); op < numOps; op++ {
				for _, s := range sites {
					for i := 0; i < perSite; i++ {
						order = append(order, check{op, s})
					}
				}
			}
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			occ := make(map[check]int)
			out := make(map[string]bool)
			for _, c := range order {
				n := occ[c]
				secondary := sites[(len(c.site)+n)%len(sites)]
				out[fmt.Sprintf("%s@%s/%d", c.op, c.site, n)] = in.Check(c.op, c.site, secondary) != nil
				occ[c]++
			}
			var b []byte
			for op := Op(0); op < numOps; op++ {
				for _, s := range sites {
					for i := 0; i < perSite; i++ {
						if out[fmt.Sprintf("%s@%s/%d", op, s, i)] {
							b = append(b, '1')
						} else {
							b = append(b, '0')
						}
					}
				}
			}
			b = append(b, fmt.Sprintf("|%d", in.Injected())...)
			return string(b)
		}
		ref := drive(rand.New(rand.NewSource(int64(seed))))
		got := drive(rand.New(rand.NewSource(int64(seed) + 1)))
		if ref != got {
			t.Fatalf("plan %q: fault set depends on interleaving:\n%s\n%s", spec, ref, got)
		}
	})
}
