package faultinject

import (
	"fmt"
	"strconv"
	"strings"
)

// ParsePlan parses the compact fault-plan syntax shared by the
// presp-sim -faults flag (runtime operations) and the presp-flow
// -faults flag (CAD operations): comma-separated clauses, each either
//
//	seed=<uint64>
//
// or a rule
//
//	<op>[@<site>][=<rate>][:after=<n>][:count=<n>]
//
// Runtime operations — transfer, decouple, recouple, icap, crc,
// kernel — are reported by the simulation engine; <site> is a plane,
// tile or accelerator name. CAD operations — synth, floorplan, impl,
// bitgen, drc — are reported by the concurrent flow engine; <site> is a
// partition name, module name, design name or bitstream name.
//
// Every op is evaluated by one order-independent Injector: a rule's
// After/Count window applies independently at each primary site, the
// first site the reporting layer lists for the operation:
//
//	transfer                   the NoC plane (dma, mem-rsp, ...)
//	decouple, recouple         the tile
//	icap, crc, seu             the tile
//	kernel                     the accelerator
//	synth, bitgen, drc         the partition (static, rt_<n>_rp), or
//	                           full for whole-device runs
//	impl                       static (pre-route), the design (serial)
//	                           or the in-context group's first partition
//	floorplan                  the design
//
// A rule naming a secondary site (an endpoint tile of a transfer, the
// accelerator of an ICAP program) still matches, but its counters stay
// keyed on the primary site. So "icap:count=1" fails the first ICAP
// program at every tile, and "synth:count=1" the first synthesis of
// every module. Retries advance their site's occurrence counter. Rate
// draws hash (seed, rule, site, occurrence), so injected faults are
// byte-identical for any flow worker count and any cross-site event
// order, and appending a rule never moves where earlier rules fire.
//
// The seu operation models configuration-memory single-event upsets:
// a matching occurrence flips one bit in the target tile's resident
// configuration image (detected and repaired by the readback scrubber
// when reconfig.Config.ScrubInterval is set). Occurrences are the
// runtime's periodic per-tile config-memory sample ticks
// (reconfig.Config.SEUCheckInterval apart in virtual time), so each
// tile's upset schedule is a pure function of (seed, rule, tile,
// tick). <site> is a tile name or the name of the accelerator the tile
// holds. A seu rule with a zero rate and no count is rejected with an
// explicit error: it would inject nothing.
//
// A rule without a rate is deterministic and fires once by default;
// count=-1 makes it persistent (stuck-at). Examples:
//
//	icap@rt_1:count=2            fail the tile's first two ICAP programs
//	icap:count=1                 fail the first ICAP program at every tile
//	transfer@dma=0.05            drop 5% of DMA-plane packets (seeded)
//	recouple@rt_2:after=1:count=-1   decoupler stuck after one success
//	seed=42,crc=0.2              corrupt 20% of bitstream fetches
//	synth@rt_1:count=1           crash the partition's first synthesis
//	impl=0.3                     fail 30% of P&R runs (seeded, per site)
//	bitgen@rt_2:count=-1         bitstream writer permanently wedged
//	seu@rt_1=0.01                upset rt_1's config memory at 1%/tick
//	seu@t0:after=10:count=3      three upsets from the 10th sample on
func ParsePlan(s string) (*Plan, error) {
	p := &Plan{}
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	for _, clause := range strings.Split(s, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q: %v", v, err)
			}
			p.Seed = seed
			continue
		}
		r, err := parseRule(clause)
		if err != nil {
			return nil, err
		}
		p.Rules = append(p.Rules, r)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func parseRule(clause string) (Rule, error) {
	fields := strings.Split(clause, ":")
	head, opts := fields[0], fields[1:]

	var r Rule
	rated := false
	if eq := strings.IndexByte(head, '='); eq >= 0 {
		rate, err := strconv.ParseFloat(head[eq+1:], 64)
		if err != nil {
			return r, fmt.Errorf("faultinject: clause %q: bad rate: %v", clause, err)
		}
		r.Rate = rate
		rated = true
		head = head[:eq]
	}
	if at := strings.IndexByte(head, '@'); at >= 0 {
		r.Site = head[at+1:]
		head = head[:at]
		if r.Site == "" {
			return r, fmt.Errorf("faultinject: clause %q: empty site", clause)
		}
	}
	op, err := ParseOp(head)
	if err != nil {
		return r, fmt.Errorf("faultinject: clause %q: %v", clause, err)
	}
	r.Op = op
	if !rated {
		r.Count = 1 // deterministic rules fire once unless told otherwise
	}
	for _, o := range opts {
		key, val, ok := strings.Cut(o, "=")
		if !ok {
			return r, fmt.Errorf("faultinject: clause %q: option %q is not key=value", clause, o)
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return r, fmt.Errorf("faultinject: clause %q: bad %s: %v", clause, key, err)
		}
		switch key {
		case "after":
			r.After = n
		case "count":
			r.Count = n
		default:
			return r, fmt.Errorf("faultinject: clause %q: unknown option %q", clause, key)
		}
	}
	return r, nil
}
