package expers

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/report"
)

// This file renders DPCS policy timelines (streams of obs.PolicyEvent,
// typically read back from a timeline.jsonl written by `pcs sim
// -timeline` or a `pcs sweep -dpcs -timeline` per-job policy file) as VDD-vs-time views:
// the raw transition trajectory and the per-level residency summary.
// The residency replay is the same piecewise-constant reconstruction
// the cpusim reconciliation test performs against
// Controller.TimeAtLevelCycles.

// VDDResidency is the time one cache spent at one VDD level.
type VDDResidency struct {
	Cache  string  `json:"cache"`
	Level  int     `json:"level"`
	VDD    float64 `json:"vdd"`
	Cycles uint64  `json:"cycles"`
	// Frac is Cycles over the run length.
	Frac float64 `json:"frac"`
}

// VDDResidencies replays the DecisionTransition events of a policy
// timeline into per-cache, per-level cycle residencies over a run of
// endCycle cycles. A cache with no transition events has an unknown
// (constant) voltage and is omitted. Results are ordered by cache name,
// then by descending level.
func VDDResidencies(events []obs.PolicyEvent, endCycle uint64) []VDDResidency {
	type state struct {
		level    int
		vdd      float64
		sinceCyc uint64
		perLevel map[int]uint64
		levelVDD map[int]float64
	}
	caches := map[string]*state{}
	var order []string
	for _, ev := range events {
		if ev.Decision != obs.DecisionTransition {
			continue
		}
		st, ok := caches[ev.CacheName]
		if !ok {
			st = &state{
				level:    ev.FromLevel,
				vdd:      ev.FromVDD,
				perLevel: map[int]uint64{},
				levelVDD: map[int]float64{},
			}
			caches[ev.CacheName] = st
			order = append(order, ev.CacheName)
		}
		st.levelVDD[st.level] = st.vdd
		if ev.Cycle > st.sinceCyc {
			st.perLevel[st.level] += ev.Cycle - st.sinceCyc
		}
		st.level, st.vdd, st.sinceCyc = ev.ToLevel, ev.ToVDD, ev.Cycle
	}
	sort.Strings(order)
	var out []VDDResidency
	for _, name := range order {
		st := caches[name]
		st.levelVDD[st.level] = st.vdd
		if endCycle > st.sinceCyc {
			st.perLevel[st.level] += endCycle - st.sinceCyc
		}
		levels := make([]int, 0, len(st.perLevel))
		for l := range st.perLevel {
			levels = append(levels, l)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(levels)))
		for _, l := range levels {
			r := VDDResidency{Cache: name, Level: l, VDD: st.levelVDD[l], Cycles: st.perLevel[l]}
			if endCycle > 0 {
				r.Frac = float64(r.Cycles) / float64(endCycle)
			}
			out = append(out, r)
		}
	}
	return out
}

// VDDTrajectoryTable renders the transition events of a policy timeline
// as a VDD-vs-time table, one row per voltage transition. clockHz
// converts cycles to time; maxRows > 0 truncates long trajectories
// (with a trailing row noting how many transitions were elided).
func VDDTrajectoryTable(events []obs.PolicyEvent, clockHz float64, maxRows int) *report.Table {
	t := report.NewTable("DPCS VDD trajectory (voltage transitions vs time)",
		"Time (ms)", "Cycle", "Cache", "Level", "VDD (V)", "WB", "Inv", "Penalty (cyc)")
	shown, total := 0, 0
	for _, ev := range events {
		if ev.Decision != obs.DecisionTransition {
			continue
		}
		total++
		if maxRows > 0 && shown >= maxRows {
			continue
		}
		shown++
		ms := 0.0
		if clockHz > 0 {
			ms = float64(ev.Cycle) / clockHz * 1e3
		}
		t.AddRow(
			fmt.Sprintf("%.3f", ms),
			ev.Cycle,
			ev.CacheName,
			fmt.Sprintf("%d->%d", ev.FromLevel, ev.ToLevel),
			fmt.Sprintf("%.2f->%.2f", ev.FromVDD, ev.ToVDD),
			ev.Writebacks,
			ev.Invalidations,
			ev.PenaltyCycles,
		)
	}
	if total > shown {
		t.AddRow(fmt.Sprintf("... %d more transitions", total-shown), "", "", "", "", "", "", "")
	}
	return t
}

// VDDResidencyTable renders VDDResidencies as a table.
func VDDResidencyTable(events []obs.PolicyEvent, endCycle uint64) *report.Table {
	t := report.NewTable("DPCS VDD residency (fraction of run at each level)",
		"Cache", "Level", "VDD (V)", "Cycles", "Residency %")
	for _, r := range VDDResidencies(events, endCycle) {
		t.AddRow(r.Cache, r.Level, fmt.Sprintf("%.2f", r.VDD), r.Cycles,
			fmt.Sprintf("%.1f", r.Frac*100))
	}
	return t
}
