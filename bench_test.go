// Package repro_test holds the benchmark harness: one testing.B benchmark
// per paper table and figure, each invoking the same experiment code the
// cmd tools use (internal/expers). Benchmarks report the figure's
// headline quantity as custom metrics, so `go test -bench=. -benchmem`
// both times the experiment pipeline and regenerates the key numbers.
//
// Simulation-backed benchmarks (Fig. 4) run scaled-down instruction
// windows to keep bench time reasonable; the full-scale official run is
// `cmd/pcs-sim` (see EXPERIMENTS.md for its recorded output).
package repro_test

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/cpusim"
	"repro/internal/expers"
	"repro/internal/multicore"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
)

// BenchmarkFig2BER regenerates the SRAM bit-error-rate curve (Fig. 2).
func BenchmarkFig2BER(b *testing.B) {
	var pts []expers.Fig2Point
	for i := 0; i < b.N; i++ {
		pts, _ = expers.Fig2()
	}
	b.ReportMetric(pts[len(pts)-1].BER*1e12, "BER@1.0V(e-12)")
	b.ReportMetric(pts[0].BER*1e3, "BER@0.3V(e-3)")
}

// BenchmarkFig3aPowerCapacity regenerates the static power vs effective
// capacity comparison (Fig. 3a) and reports the FFT-Cache gap at the
// 99 % capacity point (paper: 28.2 % with 3 VDD levels).
func BenchmarkFig3aPowerCapacity(b *testing.B) {
	var gap3 float64
	for i := 0; i < b.N; i++ {
		var err error
		gap3, err = expers.Fig3aGapAt99(expers.L1ConfigA(), 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(gap3*100, "gap3lvl-%")
}

// BenchmarkFig3bCapacity regenerates the usable-blocks curves (Fig. 3b).
func BenchmarkFig3bCapacity(b *testing.B) {
	var curves []*expers.MechCurve
	for i := 0; i < b.N; i++ {
		var err error
		curves, _, err = expers.Fig3bMechs(expers.L1ConfigA(), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Capacity retained at 0.54 V (grid index for 0.54 from 0.30).
	for _, c := range curves {
		switch c.Name {
		case "proposed":
			b.ReportMetric(c.Capacity[24]*100, "proposedCap@0.54V-%")
		case "fftcache":
			b.ReportMetric(c.Capacity[24]*100, "fftCap@0.54V-%")
		}
	}
}

// BenchmarkFig3cLeakage regenerates the leakage breakdown (Fig. 3c).
func BenchmarkFig3cLeakage(b *testing.B) {
	var rows []expers.Fig3cRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = expers.Fig3c(expers.L1ConfigA())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].TotalW*1e3, "totalLeak@1.0V-mW")
}

// BenchmarkFig3dYield regenerates the five-scheme yield comparison
// (Fig. 3d) and reports each scheme's min-VDD at 99 % yield.
func BenchmarkFig3dYield(b *testing.B) {
	var rows []expers.MinVDDRow
	for i := 0; i < b.N; i++ {
		var err error
		_, _, err = expers.Fig3dMechs(expers.L1ConfigA(), nil)
		if err != nil {
			b.Fatal(err)
		}
		rows, _, err = expers.MinVDDMechs(expers.L1ConfigA(), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.OK {
			b.ReportMetric(r.MinVDD, "minVDD-"+r.Scheme)
		}
	}
}

// BenchmarkAreaOverhead regenerates the Sec. 4.2 area-overhead table
// (paper: 2-5 % total in the worst case).
func BenchmarkAreaOverhead(b *testing.B) {
	var rows []expers.AreaRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = expers.AreaOverheads()
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	for _, r := range rows {
		if r.OverheadFraction > worst {
			worst = r.OverheadFraction
		}
	}
	b.ReportMetric(worst*100, "worstOverhead-%")
}

// BenchmarkMinVDDvsAssoc regenerates the Sec. 3.1 design-space claim:
// higher associativity lowers the yield-constrained min-VDD.
func BenchmarkMinVDDvsAssoc(b *testing.B) {
	var plans []expers.VDDPlanRow
	for i := 0; i < b.N; i++ {
		var err error
		plans, _, err = expers.VDDPlans()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(plans[0].VDD1, "VDD1-L1A")
	b.ReportMetric(plans[3].VDD1, "VDD1-L2B")
}

// fig4Bench runs a scaled-down Fig. 4 for one configuration over a
// representative benchmark subset — through the worker pool and each
// cell's trace pipe, as the full pcs sim grid runs — and reports the
// headline savings plus the grid's simulated throughput: (warm-up +
// measured) instructions × cells per second.
func fig4Bench(b *testing.B, cfg cpusim.SystemConfig) {
	b.Helper()
	names := []string{"hmmer.s", "bzip2.s", "mcf.s", "libquantum.s"}
	var workloads []trace.Workload
	for _, name := range names {
		w, ok := trace.ByName(name)
		if !ok {
			b.Fatalf("workload %s missing", name)
		}
		workloads = append(workloads, w)
	}
	opts := cpusim.RunOptions{WarmupInstr: 200_000, SimInstr: 1_000_000, Seed: 1}
	var sum expers.Summary
	cells := 0
	for i := 0; i < b.N; i++ {
		jobs, err := expers.Fig4CellJobs(cfg, workloads, opts)
		if err != nil {
			b.Fatal(err)
		}
		res, err := runner.Run(context.Background(), expers.NewCampaignRegistry(),
			runner.Campaign{Name: "fig4", Seed: opts.Seed, Jobs: jobs}, runner.Options{})
		if err != nil {
			b.Fatal(err)
		}
		grids, err := expers.AssembleFig4(res.Results)
		if err != nil {
			b.Fatal(err)
		}
		sum = expers.Summarise(grids[0])
		cells += len(res.Results)
	}
	b.ReportMetric(float64(opts.WarmupInstr+opts.SimInstr)*float64(cells)/b.Elapsed().Seconds(), "instr/s")
	b.ReportMetric(sum.MeanSavingSPCS*100, "meanSPCSsaving-%")
	b.ReportMetric(sum.MeanSavingDPCS*100, "meanDPCSsaving-%")
	b.ReportMetric(sum.MaxOverheadDPCS*100, "maxDPCSoverhead-%")
}

// BenchmarkFig4ConfigA regenerates the Fig. 4 simulation panels for
// Config A (scaled; full run via cmd/pcs-sim).
func BenchmarkFig4ConfigA(b *testing.B) { fig4Bench(b, cpusim.ConfigA()) }

// BenchmarkFig4ConfigB regenerates the Fig. 4 simulation panels for
// Config B (scaled; full run via cmd/pcs-sim).
func BenchmarkFig4ConfigB(b *testing.B) { fig4Bench(b, cpusim.ConfigB()) }

// BenchmarkDPCSParamSweep exercises the Sec. 5 policy design space: one
// workload under three escape budgets (the pcs-sweep tool's -dpcs study).
func BenchmarkDPCSParamSweep(b *testing.B) {
	w, ok := trace.ByName("bzip2.s")
	if !ok {
		b.Fatal("bzip2.s missing")
	}
	opts := cpusim.RunOptions{WarmupInstr: 100_000, SimInstr: 500_000, Seed: 1}
	for i := 0; i < b.N; i++ {
		for _, ht := range []float64{0.01, 0.03, 0.10} {
			cfg := cpusim.ConfigA()
			cfg.HighThreshold = ht
			cfg.LowThreshold = ht / 2
			if _, err := cpusim.Run(cfg, core.DPCS, w, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulated instructions per
// second of the cpusim substrate (baseline mode, one hot workload).
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, _ := trace.ByName("hmmer.s")
	opts := cpusim.RunOptions{WarmupInstr: 0, SimInstr: 300_000, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cpusim.Run(cpusim.ConfigA(), core.Baseline, w, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(opts.SimInstr)*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

// BenchmarkCellComparison regenerates the bit-cell study (paper Sec. 2:
// hardened 8T/10T cells vs 6T + the proposed mechanism).
func BenchmarkCellComparison(b *testing.B) {
	var rows []expers.CellRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = expers.CellComparison()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].MinVDDWithPCS, "minVDD-6T+PCS")
	b.ReportMetric(rows[2].MinVDDNoFT, "minVDD-10T-bare")
}

// BenchmarkLeakageTechniques regenerates the drowsy/decay/SPCS leakage
// comparison (paper Sec. 2 related work, quantified).
func BenchmarkLeakageTechniques(b *testing.B) {
	var rows []expers.LeakageRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = expers.LeakageComparison(400_000, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[1].LeakEnergyRel, "drowsyLeak-rel")
	b.ReportMetric(rows[3].LeakEnergyRel, "spcsLeak-rel")
}

// BenchmarkPolicyAblation regenerates the DPCS damping ablation
// (DESIGN.md §6).
func BenchmarkPolicyAblation(b *testing.B) {
	opts := cpusim.RunOptions{WarmupInstr: 100_000, SimInstr: 400_000, Seed: 1}
	var rows []expers.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = expers.Ablation([]string{"hmmer.s"}, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].OverhdPct, "fullPolicyOverhead-%")
	b.ReportMetric(rows[len(rows)-1].OverhdPct, "bareListing1Overhead-%")
}

// BenchmarkMulticore regenerates the multi-core coherence extension
// (paper Sec. 5 future work).
func BenchmarkMulticore(b *testing.B) {
	cfg := multicore.DefaultConfig()
	cfg.Cores = 2
	w, _ := trace.ByName("gobmk.s")
	var r multicore.Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = multicore.Run(cfg, core.SPCS, w, 50_000, 200_000, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.CoherenceInvalidations), "cohInvals")
}

// campaignCellGrid builds the mixed campaign the throughput benchmark
// drives: a realistic blend of analytical cells (min-VDD across
// geometries, the VDD-level sweep, the bit-cell study — with the
// duplicate coverage a real sweep has) plus a block of tiny fig4-cell
// simulations sharing one pinned seed, as Fig. 4 grids do.
func campaignCellGrid(b *testing.B) runner.Campaign {
	b.Helper()
	var jobs []runner.Spec
	add := func(kind string, params any) {
		raw, err := json.Marshal(params)
		if err != nil {
			b.Fatal(err)
		}
		jobs = append(jobs, runner.Spec{Kind: kind, Params: raw})
	}
	for _, size := range []int{32 << 10, 64 << 10, 128 << 10, 256 << 10} {
		for _, ways := range []int{2, 4, 8} {
			add("minvdd", expers.MinVDDParams{SizeBytes: size, Ways: ways, BlockBytes: 64})
		}
	}
	for _, ways := range []int{2, 4, 8, 16} {
		add("minvdd", expers.MinVDDParams{SizeBytes: 64 << 10, Ways: ways, BlockBytes: 64, Yield: 0.995})
	}
	for lv := 1; lv <= 8; lv++ {
		add("vddlevels", expers.VDDLevelsParams{Levels: lv})
	}
	for i := 0; i < 4; i++ {
		add("cells", expers.CellsParams{})
	}
	for _, bench := range []string{"hmmer.s", "bzip2.s", "mcf.s", "libquantum.s"} {
		for _, mode := range []string{"SPCS", "DPCS"} {
			add("fig4-cell", expers.Fig4CellParams{
				Config: cpusim.ConfigA(), Mode: mode, Bench: bench,
				SimInstr: 2_000, Seed: 1,
			})
		}
	}
	return runner.Campaign{Name: "bench-cell-grid", Seed: 1, Jobs: jobs}
}

// BenchmarkCampaignCellThroughput measures end-to-end campaign cells per
// second on the mixed grid. The cold mode reproduces the pre-arena cost
// structure: per-worker arenas disabled and every memo layer (expers
// figures, cpusim statics, Zipf tables) dropped at each job start, so
// each cell rebuilds its analytical models, cache structures, fault
// maps and workload tables from scratch, exactly as every cell used to.
// (In-flight jobs may briefly share a just-reset table; that only makes
// the cold baseline faster, never slower.) The warm mode is the steady
// state a long sweep runs in: shared memos plus per-worker arenas. The
// warm/cold ratio is the headline number for the zero-alloc cell work.
func BenchmarkCampaignCellThroughput(b *testing.B) {
	reg := expers.NewCampaignRegistry()
	c := campaignCellGrid(b)
	drive := func(b *testing.B, opts runner.Options) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			res, err := runner.Run(context.Background(), reg, c, opts)
			if err != nil {
				b.Fatal(err)
			}
			if res.Failed > 0 {
				b.Fatalf("%d campaign cells failed", res.Failed)
			}
		}
		b.ReportMetric(float64(len(c.Jobs))*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
	}
	b.Run("cold", func(b *testing.B) {
		drive(b, runner.Options{
			Workers:       4,
			NoWorkerState: true,
			JobContext: func(ctx context.Context, _ int, _ runner.Spec) context.Context {
				expers.ResetMemos()
				cpusim.ResetStatics()
				stats.ResetZipfTables()
				return ctx
			},
		})
	})
	b.Run("warm", func(b *testing.B) {
		// Prime the memo tables once so the timed region measures the
		// steady state.
		expers.ResetMemos()
		if _, err := runner.Run(context.Background(), reg, c, runner.Options{Workers: 4}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		drive(b, runner.Options{Workers: 4})
	})
}
