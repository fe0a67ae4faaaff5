package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracez"
)

// perLayer lists the per-layer metrics in report order; BENCHMARK.json
// declares the same names and units (TestDeclaredMetrics).
var perLayer = []struct{ name, unit string }{
	{"trace.gen_ns_per_instr", "ns"},
	{"trace.instrs", "count"},
	{"cache.access_ns", "ns"},
	{"cache.accesses", "count"},
	{"cache.l1i_miss_ratio", "ratio"},
	{"cache.l1d_miss_ratio", "ratio"},
	{"cache.l2_miss_ratio", "ratio"},
	{"core.tick_ns", "ns"},
	{"core.ticks", "count"},
	{"core.transition_us", "us"},
	{"core.transitions", "count"},
	{"core.transition_writebacks", "count"},
	{"core.populate_ms", "ms"},
	{"cpusim.build_ms", "ms"},
	{"cpusim.warmup_s", "s"},
	{"cpusim.measure_s", "s"},
	{"cpusim.energy_us", "us"},
	{"cpusim.ns_per_instr", "ns"},
	{"cpusim.sim_cycles", "count"},
	{"cpusim.ipc", "ratio"},
	{"runner.idle_frac", "ratio"},
	{"runner.queue_ms_p50", "ms"},
	{"runner.overhead_us_per_cell", "us"},
	{"http.submit_ms", "ms"},
	{"http.results_ms", "ms"},
	{"http.non2xx", "count"},
	{"ledger.append_us", "us"},
	{"resultstore.get_us", "us"},
	{"resultstore.put_us", "us"},
	{"resultstore.put_existing_us", "us"},
	{"resultstore.hit_ratio", "ratio"},
	{"resultstore.bytes", "bytes"},
	{"expers.cell_ms.cpusim", "ms"},
	{"expers.cell_ms.fig4-cell", "ms"},
	{"expers.cell_ms.minvdd", "ms"},
	{"expers.cell_ms.mechminvdd", "ms"},
	{"expers.cell_ms.vddlevels", "ms"},
	{"expers.cell_ms.cells", "ms"},
	{"expers.cell_ms.leakage", "ms"},
	{"expers.cell_ms.ablation", "ms"},
	{"expers.spcs_saving_err_pp", "pp"},
	{"expers.dpcs_saving_err_pp", "pp"},
	{"expers.dpcs_overhead_err_pp", "pp"},
	{"tracez.overhead_frac", "ratio"},
	{"bench.unattributed_frac", "ratio"},
}

// unmeasured names the repository modules neither end-to-end unit
// exercises; the benchmark reports no figures for them.
var unmeasured = []string{"multicore", "bist", "plot"}

// mayBeZero lists, per workload, the per-layer metrics that are
// legitimately zero there: a kind the workload never runs, a store it
// does not have or that starts cold, accuracy figures only the Fig. 4
// grid yields. Any other metric reading zero fails the run — a zero
// there means the measurement broke, not that the layer is free.
var mayBeZero = map[string][]string{
	"fig4-grid": {"resultstore.hit_ratio", "resultstore.bytes", "http.non2xx",
		"expers.cell_ms.cpusim", "expers.cell_ms.minvdd", "expers.cell_ms.mechminvdd",
		"expers.cell_ms.vddlevels", "expers.cell_ms.cells", "expers.cell_ms.leakage", "expers.cell_ms.ablation"},
	"sweep-studies": {"resultstore.hit_ratio", "http.non2xx",
		"expers.cell_ms.fig4-cell", "expers.cell_ms.mechminvdd",
		"expers.spcs_saving_err_pp", "expers.dpcs_saving_err_pp", "expers.dpcs_overhead_err_pp"},
	"serve-mixed": {"http.non2xx",
		"expers.cell_ms.cpusim", "expers.cell_ms.leakage", "expers.cell_ms.ablation",
		"expers.spcs_saving_err_pp", "expers.dpcs_saving_err_pp", "expers.dpcs_overhead_err_pp"},
}

// layerRun is a traced run's raw material and its per-layer figures.
type layerRun struct {
	vals     map[string]float64
	rows     []layerRow
	capacity float64 // worker-slot seconds: GOMAXPROCS x traced wall
	wallT    float64 // traced wall, median over traced repetitions
	wallU    float64 // untraced wall, median
	n        int     // traced repetitions
	// unattributed is the share of capacity no span covers.
	unattributed float64
	// simCycles and simInstr sum the simulated results' counts.
	simCycles, simInstr float64
	attempted           int
	failed              int
	checks              checks
}

// layerRow is one line of the self-time table, in worker-seconds.
type layerRow struct {
	layer string
	spans string
	selfS float64
}

// spanTable attributes a traced launch's worker-slot time to layers
// from spans.jsonl. Self time is a span's duration minus the part its
// children cover. Inside campaign time the slots not running a job are
// runner idle time; slot time outside every campaign and artifact
// write (process start-up, spec expansion, table rendering, HTTP
// between campaigns) has no span and is the unattributed remainder.
func spanTable(runs []runDir, slots int, wall time.Duration, start time.Time) ([]layerRow, float64) {
	layerOf := map[string]string{
		"job":           "expers",
		"sim.build":     "cpusim",
		"sim.energy":    "cpusim",
		"sim.tracegen":  "trace",
		"sim.warmup":    "trace+cache+core",
		"sim.measure":   "trace+cache+core",
		"cache.probe":   "resultstore",
		"store.write":   "resultstore",
		"results.write": "runner",
		"ledger.append": "ledger",
	}
	self := map[string]float64{}
	names := map[string]map[string]bool{}
	var covered []interval
	for _, rd := range runs {
		childDur := map[string]int64{}
		for _, sp := range rd.spans {
			if sp.Parent != "" {
				childDur[sp.Parent] += sp.DurNS
			}
		}
		for _, sp := range rd.spans {
			switch sp.Name {
			case "campaign":
				covered = append(covered, spanInterval(sp))
				continue
			case "results.write", "ledger.append":
				covered = append(covered, spanInterval(sp))
			}
			layer, ok := layerOf[sp.Name]
			if !ok || sp.Kind == tracez.KindInstant {
				continue
			}
			self[layer] += float64(sp.DurNS-childDur[sp.ID]) / 1e9
			if names[layer] == nil {
				names[layer] = map[string]bool{}
			}
			names[layer][sp.Name] = true
		}
	}
	capacity := float64(slots) * wall.Seconds()
	coveredS := unionSeconds(covered, start, start.Add(wall))
	var rows []layerRow
	var attributed float64
	for layer, s := range self {
		var ns []string
		for n := range names[layer] {
			ns = append(ns, n)
		}
		sort.Strings(ns)
		rows = append(rows, layerRow{layer: layer, spans: strings.Join(ns, ","), selfS: s})
		attributed += s
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].selfS > rows[j].selfS })
	// Slot time inside campaigns and artifact writes that no span covers.
	idle := float64(slots)*coveredS - attributed
	rows = append(rows, layerRow{layer: "runner.idle", spans: "slots x campaign time - spans", selfS: idle})
	unattributed := capacity - attributed - idle
	return rows, unattributed / capacity
}

type interval struct{ from, to time.Time }

func spanInterval(sp tracez.Span) interval {
	from := time.Unix(0, sp.StartUnixNS)
	return interval{from, from.Add(time.Duration(sp.DurNS))}
}

// unionSeconds is the length of the union of the intervals, clipped to
// [lo, hi].
func unionSeconds(iv []interval, lo, hi time.Time) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].from.Before(iv[j].from) })
	var total time.Duration
	var cur interval
	for i, x := range iv {
		if x.from.Before(lo) {
			x.from = lo
		}
		if x.to.After(hi) {
			x.to = hi
		}
		if !x.to.After(x.from) {
			continue
		}
		if i == 0 || cur.to.IsZero() || x.from.After(cur.to) {
			if !cur.to.IsZero() {
				total += cur.to.Sub(cur.from)
			}
			cur = x
			continue
		}
		if x.to.After(cur.to) {
			cur.to = x.to
		}
	}
	if !cur.to.IsZero() {
		total += cur.to.Sub(cur.from)
	}
	return total.Seconds()
}

// spanFigures reads the per-layer figures the program's own spans and
// run records give: simulator phase times, store probes, per-kind cell
// times, queueing, and the simulated counts.
func (lr *layerRun) spanFigures(runs []runDir, wall time.Duration) {
	var warm, meas, energy, build []float64
	var loopNS, loopInstr float64
	var probes, hits float64
	byKind := map[string][]float64{}
	var queue []float64
	var jobS float64
	for _, rd := range runs {
		cached := map[string]bool{}
		for _, sp := range rd.spans {
			if sp.Name == "job" && sp.Attrs["cached"] == true {
				cached[sp.ID] = true
			}
		}
		for _, sp := range rd.spans {
			d := float64(sp.DurNS)
			switch sp.Name {
			case "sim.warmup", "sim.measure":
				if sp.Name == "sim.warmup" {
					warm = append(warm, d/1e9)
				} else {
					meas = append(meas, d/1e9)
				}
				loopNS += d
				if n, ok := sp.Attrs["instructions"].(float64); ok {
					loopInstr += n
				}
			case "sim.energy":
				energy = append(energy, d/1e3)
			case "sim.build":
				build = append(build, d/1e6)
			case "cache.probe":
				probes++
				if sp.Attrs["hit"] == true {
					hits++
				}
			case "job":
				jobS += d / 1e9
				if kind, ok := sp.Attrs["kind"].(string); ok && !cached[sp.ID] {
					byKind[kind] = append(byKind[kind], d/1e6)
				}
			}
		}
		for _, c := range timelineCells(rd.events, nil) {
			queue = append(queue, c.startMS)
		}
		lr.addSimCounts(rd)
	}
	v := lr.vals
	v["cpusim.warmup_s"] = mean(warm)
	v["cpusim.measure_s"] = mean(meas)
	v["cpusim.energy_us"] = mean(energy)
	v["cpusim.build_ms"] = mean(build)
	v["cpusim.ns_per_instr"] = ratio(loopNS, loopInstr)
	v["resultstore.hit_ratio"] = ratio(hits, probes)
	v["runner.queue_ms_p50"] = zeroIfNaN(median(queue))
	v["runner.idle_frac"] = 1 - jobS/(float64(runtime.GOMAXPROCS(0))*wall.Seconds())
	for _, kind := range []string{"cpusim", "fig4-cell", "minvdd", "mechminvdd", "vddlevels", "cells", "leakage", "ablation"} {
		v["expers.cell_ms."+kind] = mean(byKind[kind])
	}
}

// addSimCounts sums the simulated cycle and instruction counts of the
// run's simulation results (fig4-cell and cpusim outputs).
func (lr *layerRun) addSimCounts(rd runDir) {
	for _, line := range rd.results {
		var r struct {
			Kind   string          `json:"kind"`
			Output json.RawMessage `json:"output"`
		}
		if json.Unmarshal(line, &r) != nil || len(r.Output) == 0 || r.Output[0] != '{' {
			continue
		}
		var out struct {
			Cycles       uint64 `json:"Cycles"`
			Instructions uint64 `json:"Instructions"`
			CyclesLC     uint64 `json:"cycles"`
			InstrLC      uint64 `json:"instructions"`
		}
		if json.Unmarshal(r.Output, &out) != nil {
			continue
		}
		switch r.Kind {
		case "fig4-cell":
			lr.simCycles += float64(out.Cycles)
			lr.simInstr += float64(out.Instructions)
		case "cpusim":
			lr.simCycles += float64(out.CyclesLC)
			lr.simInstr += float64(out.InstrLC)
		}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func zeroIfNaN(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// output finishes the per-layer figures, checks that none expected to
// be nonzero reads zero, and prints the layer table.
func (lr *layerRun) output(name string, w io.Writer) output {
	v := lr.vals
	v["cpusim.sim_cycles"] = lr.simCycles
	v["cpusim.ipc"] = ratio(lr.simInstr, lr.simCycles)
	v["tracez.overhead_frac"] = lr.wallT/lr.wallU - 1
	v["bench.unattributed_frac"] = lr.unattributed

	allowed := map[string]bool{}
	for _, n := range mayBeZero[name] {
		allowed[n] = true
	}
	var zero []string
	out := output{Metrics: map[string]metric{}}
	fmt.Fprintf(w, "== %s: per layer (traced run, %d traced and %d untraced repetitions) ==\n", name, lr.n, lr.n)
	for _, d := range perLayer {
		val := v[d.name] // absent reads zero: allowed only where listed
		note := ""
		switch {
		case math.IsNaN(val) || math.IsInf(val, 0):
			zero = append(zero, d.name)
			val = 0
			note = "NOT A NUMBER"
		case val == 0 && allowed[d.name]:
			note = "n/a on this workload"
		case val == 0:
			zero = append(zero, d.name)
			note = "ZERO, expected nonzero"
		}
		fmt.Fprintf(w, "  %-30s %14.4f %-6s %s\n", d.name, val, d.unit, note)
		out.Metrics[d.name] = metric{Value: val, Unit: d.unit}
	}
	lr.checks.add("layers.nonzero", len(zero) == 0, "metrics expected nonzero read zero or missing: %v", zero)

	slots := runtime.GOMAXPROCS(0)
	fmt.Fprintf(w, "  layer table, traced wall %.3f s x %d slots = %.3f slot-s:\n",
		lr.capacity/float64(slots), slots, lr.capacity)
	var total float64
	for _, r := range lr.rows {
		total += r.selfS
		fmt.Fprintf(w, "    %-18s %10.3f slot-s %6.1f%%  %s\n", r.layer, r.selfS, 100*r.selfS/lr.capacity, r.spans)
	}
	un := lr.unattributed * lr.capacity
	fmt.Fprintf(w, "    %-18s %10.3f slot-s %6.1f%%  no span (start-up, rendering, HTTP between campaigns)\n", "unattributed", un, 100*lr.unattributed)
	fmt.Fprintf(w, "    %-18s %10.3f slot-s %6.1f%%\n", "total", total+un, 100*(total+un)/lr.capacity)
	fmt.Fprintf(w, "  direct probes: trace %.2f ns/instr, cache %.2f ns/access, DPCS tick %.1f ns, simulator loop %.2f ns/instr (span)\n",
		v["trace.gen_ns_per_instr"], v["cache.access_ns"], v["core.tick_ns"], v["cpusim.ns_per_instr"])
	fmt.Fprintf(w, "  unmeasured modules (in neither end-to-end unit): %s\n", strings.Join(unmeasured, ", "))
	lr.checks.print(w)

	out.Attempted = lr.attempted + len(lr.checks)
	out.Failed = lr.failed + lr.checks.failed()
	out.Correct = out.Failed == 0 && out.Attempted > 0
	return out
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) float64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n)
}

// tracedCLI makes the traced run of a CLI workload: untraced, traced,
// traced and untraced launches with identical arguments (the order
// cancels a drift in host speed out of tracez.overhead_frac), the layer
// table and span figures from the last traced one, then the direct
// layer probes.
func tracedCLI(ctx context.Context, e *env, name string, args func(runs, cache string) []string, probe probeInput, check func(*checks, [][]byte)) (*layerRun, error) {
	lr := &layerRun{vals: map[string]float64{}, n: 2}
	var outs [][]byte
	var traced *launch
	var storeBytes float64
	var wallU, wallT []float64
	for i, on := range []bool{false, true, true, false} {
		runs := filepath.Join(e.work, fmt.Sprintf("%s-traced-%d", name, i))
		cache := filepath.Join(e.work, fmt.Sprintf("%s-cache-%d", name, i))
		a := args(runs, cache)
		if on {
			a = append(a, "-trace")
		}
		l, err := runPCS(ctx, e, runs, a...)
		if err != nil {
			return nil, err
		}
		outs = append(outs, l.stdout)
		for _, c := range l.cells() {
			lr.attempted++
			if c.status != obs.EventJobDone {
				lr.failed++
			}
		}
		if on {
			traced = l
			wallT = append(wallT, l.wall.Seconds())
			storeBytes = dirBytes(cache)
		} else {
			wallU = append(wallU, l.wall.Seconds())
		}
	}
	lr.wallU, lr.wallT = median(wallU), median(wallT)
	check(&lr.checks, outs)
	lr.capacity = float64(runtime.GOMAXPROCS(0)) * traced.wall.Seconds()
	lr.rows, lr.unattributed = spanTable(traced.runs, runtime.GOMAXPROCS(0), traced.wall, traced.start)
	lr.spanFigures(traced.runs, traced.wall)
	lr.vals["resultstore.bytes"] = storeBytes
	probe.results, probe.runs = resultOutputs(traced.runs), traced.runs
	if err := lr.directProbes(ctx, e, probe); err != nil {
		return nil, err
	}
	return lr, nil
}

func tracedFig4(ctx context.Context, e *env) (*layerRun, error) {
	var acc fig4Accuracy
	lr, err := tracedCLI(ctx, e, "fig4", func(runs, _ string) []string { return fig4Args(e, runs) },
		fig4ProbeInput(e), func(cs *checks, outs [][]byte) { acc = checkFig4(cs, e, outs) })
	if err != nil {
		return nil, err
	}
	lr.vals["expers.spcs_saving_err_pp"] = acc.spcsErr
	lr.vals["expers.dpcs_saving_err_pp"] = acc.dpcsErr
	lr.vals["expers.dpcs_overhead_err_pp"] = acc.overheadErr
	return lr, nil
}

func tracedSweep(ctx context.Context, e *env) (*layerRun, error) {
	return tracedCLI(ctx, e, "sweep", func(runs, cache string) []string { return sweepArgs(e, runs, cache) },
		sweepProbeInput(e), func(cs *checks, outs [][]byte) { checkSweep(cs, e, outs) })
}

// tracedServe alternates untraced and traced sessions; the layer table
// comes from the last traced session, the HTTP figures from the
// clients of every traced session.
func tracedServe(ctx context.Context, e *env) (*layerRun, error) {
	plan := newServePlan(e.seed, e.tiny)
	lr := &layerRun{vals: map[string]float64{}}
	pairs := max(1, min(e.reps(serveNominal)/2, 5))
	var wallU, wallT, submit, results []float64
	var first, last *session
	var tally serveTally
	for i := 0; i < 2*pairs; i++ {
		traced := i%2 == 1
		s, err := runSession(ctx, e, plan, i, traced)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = s
		}
		tally.add(plan, first, s)
		lr.attempted += s.requests
		lr.failed += s.non2xx
		if !traced {
			wallU = append(wallU, s.wall.Seconds())
			continue
		}
		wallT = append(wallT, s.wall.Seconds())
		for _, r := range s.camps {
			submit = append(submit, r.submitMS)
			results = append(results, r.resultsMS)
		}
		lr.vals["http.non2xx"] += float64(s.non2xx)
		last = s
	}
	tally.check(&lr.checks)
	lr.n = pairs
	lr.wallU, lr.wallT = median(wallU), median(wallT)
	lr.vals["http.submit_ms"] = median(submit)
	lr.vals["http.results_ms"] = median(results)
	lr.capacity = float64(runtime.GOMAXPROCS(0)) * last.wall.Seconds()
	lr.rows, lr.unattributed = spanTable(last.runs, runtime.GOMAXPROCS(0), last.wall, last.start)
	lr.spanFigures(last.runs, last.wall)
	lr.vals["resultstore.bytes"] = last.storeSize
	if err := lr.directProbes(ctx, e, serveProbeInput(e, last.runs)); err != nil {
		return nil, err
	}
	return lr, nil
}
