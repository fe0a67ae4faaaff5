package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/expers"
	"repro/internal/plot"
)

// figuresCommand renders the paper's figures as SVG files: Fig. 2 (BER
// curve), Fig. 3a-d, and — when a simulation run is requested — the
// Fig. 4 bar panels. The old pcs-figures binary as a subcommand.
func figuresCommand() *cli.Command {
	var (
		outDir   string
		sim      bool
		instr    uint64
		mechsCSV string
	)
	return &cli.Command{
		Name:    "figures",
		Summary: "render the paper figures as SVG files",
		Usage:   "[-o dir] [-mechanisms a,b,...] [-sim] [-instr N]",
		SetFlags: func(fs *flag.FlagSet) {
			fs.StringVar(&outDir, "o", "figures", "output directory for SVG files")
			fs.StringVar(&mechsCSV, "mechanisms", "",
				"comma-separated mechanism selection for the Fig. 3 panels (default: the paper's set)")
			fs.BoolVar(&sim, "sim", false, "also run the (slow) Fig. 4 simulation panels")
			fs.Uint64Var(&instr, "instr", 4_000_000, "instructions per simulation run with -sim")
		},
		Run: func(fs *flag.FlagSet) error {
			mechNames, err := parseMechanisms(mechsCSV)
			if err != nil {
				return err
			}
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}

			write := func(name string, render func(f *os.File) error) error {
				path := filepath.Join(outDir, name)
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				if err := render(f); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Println("wrote", path)
				return nil
			}

			// Fig. 2: BER vs VDD (log y).
			pts, _ := expers.Fig2()
			if err := write("fig2_ber.svg", func(f *os.File) error {
				c := plot.Chart{Title: "Fig. 2 — SRAM bit error rate vs VDD",
					XLabel: "VDD (V)", YLabel: "BER", LogY: true}
				var xs, ys []float64
				for _, p := range pts {
					xs = append(xs, p.VDD)
					ys = append(ys, p.BER)
				}
				c.Add("read-SNM worst case", xs, ys)
				return c.Render(f)
			}); err != nil {
				return err
			}

			// Fig. 3a: static power vs effective capacity, one series per
			// selected mechanism (scaling curves plus step curves).
			sel3a, _, err := expers.Fig3aMechs(expers.L1ConfigA(), 2, mechNames)
			if err != nil {
				return err
			}
			if err := write("fig3a_power_capacity.svg", func(f *os.File) error {
				c := plot.Chart{Title: "Fig. 3a — static power vs effective capacity (L1-A)",
					XLabel: "proportion of usable blocks", YLabel: "static power (W)"}
				for _, cv := range sel3a.Curves {
					c.Add(cv.Label, cv.Capacity, cv.PowerW)
				}
				for _, st := range sel3a.Steps {
					c.Add(st.Label, st.Caps, st.Watts)
				}
				return c.Render(f)
			}); err != nil {
				return err
			}

			// Fig. 3b: usable blocks vs VDD.
			curves3b, _, err := expers.Fig3bMechs(expers.L1ConfigA(), mechNames)
			if err != nil {
				return err
			}
			if err := write("fig3b_capacity.svg", func(f *os.File) error {
				c := plot.Chart{Title: "Fig. 3b — proportion of usable blocks vs VDD (L1-A)",
					XLabel: "data array cell VDD (V)", YLabel: "usable fraction"}
				for _, cv := range curves3b {
					c.Add(cv.Label, cv.VDDs, cv.Capacity)
				}
				return c.Render(f)
			}); err != nil {
				return err
			}

			// Fig. 3c: leakage breakdown vs VDD.
			rows3c, _, err := expers.Fig3c(expers.L1ConfigA())
			if err != nil {
				return err
			}
			if err := write("fig3c_leakage.svg", func(f *os.File) error {
				c := plot.Chart{Title: "Fig. 3c — leakage vs VDD (L1-A)",
					XLabel: "data array cell VDD (V)", YLabel: "leakage (W)"}
				var xs, y1, y2, y3, y4 []float64
				for _, r := range rows3c {
					xs = append(xs, r.VDD)
					y1 = append(y1, r.DataNoPeriphW)
					y2 = append(y2, r.DataWithPeriphW)
					y3 = append(y3, r.TagW)
					y4 = append(y4, r.TotalW)
				}
				c.Add("data, no periphery", xs, y1)
				c.Add("data array", xs, y2)
				c.Add("tag array", xs, y3)
				c.Add("total", xs, y4)
				return c.Render(f)
			}); err != nil {
				return err
			}

			// Fig. 3d: yield vs VDD.
			curves3d, _, err := expers.Fig3dMechs(expers.L1ConfigA(), mechNames)
			if err != nil {
				return err
			}
			if err := write("fig3d_yield.svg", func(f *os.File) error {
				c := plot.Chart{Title: "Fig. 3d — yield vs VDD (L1-A)",
					XLabel: "data array cell VDD (V)", YLabel: "yield"}
				for _, cv := range curves3d {
					c.Add(cv.Label, cv.VDDs, cv.Yield)
				}
				return c.Render(f)
			}); err != nil {
				return err
			}

			if !sim {
				return nil
			}
			// Fig. 4 panels from a (scaled) simulation run.
			grids, err := runFig4Windows("figures", instr/4, instr)
			if err != nil {
				return err
			}
			for _, data := range grids {
				var labels []string
				var eS, eD, ovS, ovD []float64
				for _, r := range data.Rows {
					labels = append(labels, r.Workload)
					eS = append(eS, r.SPCS.TotalCacheEnergyJ/r.Baseline.TotalCacheEnergyJ)
					eD = append(eD, r.DPCS.TotalCacheEnergyJ/r.Baseline.TotalCacheEnergyJ)
					ovS = append(ovS, r.ExecOverhead(core.SPCS)*100)
					ovD = append(ovD, r.ExecOverhead(core.DPCS)*100)
				}
				name := data.Config
				if err := write(fmt.Sprintf("fig4_energy_%s.svg", name), func(f *os.File) error {
					b := plot.Bars{Title: fmt.Sprintf("Fig. 4 — normalised cache energy, Config %s", name),
						YLabel: "energy vs baseline", Labels: labels,
						Groups: []plot.Series{{Name: "SPCS", Y: eS}, {Name: "DPCS", Y: eD}}}
					return b.Render(f)
				}); err != nil {
					return err
				}
				if err := write(fmt.Sprintf("fig4_overhead_%s.svg", name), func(f *os.File) error {
					b := plot.Bars{Title: fmt.Sprintf("Fig. 4 — execution overhead %%, Config %s", name),
						YLabel: "overhead (%)", Labels: labels,
						Groups: []plot.Series{{Name: "SPCS", Y: clampNonNeg(ovS)}, {Name: "DPCS", Y: clampNonNeg(ovD)}}}
					return b.Render(f)
				}); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// clampNonNeg zeroes tiny negative overheads so the bar chart accepts
// them (a run can be marginally faster than baseline through noise).
func clampNonNeg(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if x > 0 {
			out[i] = x
		}
	}
	return out
}

// runFig4Windows runs the Fig. 4 grid for both configurations at the
// given windows, seed 1, as one campaign lowered from a sim document,
// logging each finished cell to stderr.
func runFig4Windows(cmd string, warmup, instr uint64) ([]expers.Fig4Data, error) {
	camp := campaigns{cmd: cmd, onResult: logCell}
	return camp.runFig4(&config.Document{
		Version: config.Version,
		Sim:     &config.SimSpec{WarmupInstr: warmup, SimInstr: instr},
	})
}
