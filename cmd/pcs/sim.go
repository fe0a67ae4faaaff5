package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpusim"
	"repro/internal/expers"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/trace"
)

// simCommand is the Fig. 4 architectural simulation: the 16 SPEC-like
// workloads under baseline, SPCS and DPCS for system Configs A and B —
// the old pcs-sim binary as a subcommand. The grid runs as one
// campaign, the one a served "sim" document runs.
func simCommand() *cli.Command {
	var (
		doc      = gridDocument(config.Document{Sim: &config.SimSpec{}})
		sim      = doc.Sim
		configs  bool
		csv      bool
		quiet    bool
		timeline string
		camp     = campaigns{cmd: "sim"}
		prof     profiler
	)
	return &cli.Command{
		Name:    "sim",
		Summary: "run the Fig. 4 simulation grid (16 workloads x baseline/SPCS/DPCS)",
		Usage:   "[-spec file] [-config A|B|both] [-instr N] [-bench name] [flags]",
		SetFlags: func(fs *flag.FlagSet) {
			fs.StringVar(&camp.spec, "spec", "", "experiment spec file (.json or .toml) with a \"sim\" section")
			fs.StringVar(&sim.Config, "config", sim.Config, "system configuration: A, B or both")
			fs.Uint64Var(&sim.SimInstr, "instr", sim.SimInstr, "measured instructions per run")
			fs.Uint64Var(&sim.WarmupInstr, "warmup", sim.WarmupInstr, "warm-up instructions (fast-forward)")
			fs.Uint64Var(&doc.Seed, "seed", doc.Seed, "seed for fault maps and workloads")
			fs.StringVar(&sim.Bench, "bench", sim.Bench, "run a single named benchmark (e.g. mcf.s)")
			fs.BoolVar(&configs, "configs", false, "print Tables 1-2 style configuration and exit")
			fs.BoolVar(&csv, "csv", false, "emit CSV instead of aligned tables")
			fs.BoolVar(&quiet, "q", false, "suppress per-run progress lines")
			fs.StringVar(&timeline, "timeline", "", "with -bench: write the DPCS policy timeline to this JSONL file")
			fs.IntVar(&doc.Workers, "workers", doc.Workers, "parallel simulations for the full grid (0 = GOMAXPROCS; results are identical at any worker count)")
			fs.StringVar(&camp.runsRoot, "runs", "", "archive grid campaign records under this directory (e.g. runs)")
			fs.BoolVar(&camp.trace, "trace", false, "with -runs: record campaign trace spans (spans.jsonl, for pcs report -perfetto)")
			fs.StringVar(&camp.cacheDir, "cache", "", "content-addressed result cache directory (memoizes grid cells across runs)")
			prof.register(fs)
		},
		Run: func(fs *flag.FlagSet) error {
			if configs {
				return printConfigs(os.Stdout)
			}
			stopProf, err := prof.start()
			if err != nil {
				return err
			}
			defer stopProf()
			if err := camp.load(fs, doc); err != nil {
				return err
			}
			if timeline != "" && sim.Bench == "" {
				return fmt.Errorf("-timeline needs -bench (it records one DPCS run)")
			}
			if camp.runsRoot != "" && sim.Bench != "" {
				return fmt.Errorf("-runs records the full grid; it cannot combine with -bench")
			}
			if sim.Bench != "" {
				cfgs, err := cpusim.ConfigsByName(sim.Config)
				if err != nil {
					return err
				}
				opts := cpusim.RunOptions{WarmupInstr: sim.WarmupInstr, SimInstr: sim.SimInstr, Seed: doc.Seed}
				for _, cfg := range cfgs {
					if err := runSingle(cfg, sim.Bench, opts, timeline); err != nil {
						return err
					}
				}
				return nil
			}

			if !quiet {
				fmt.Fprintf(os.Stderr, "config %s: %d benchmarks x 3 modes, %d instr each\n",
					sim.Config, len(trace.Suite()), sim.SimInstr)
				camp.onResult = logCell
			}
			grids, err := camp.runFig4(doc)
			if err != nil {
				return err
			}
			for _, data := range grids {
				for _, t := range []*report.Table{
					expers.Fig4PowerTable(data, "L1"),
					expers.Fig4PowerTable(data, "L2"),
					expers.Fig4OverheadTable(data),
					expers.Fig4EnergyTable(data),
					expers.SummaryTable(expers.Summarise(data)),
				} {
					if err := renderTable(t, csv); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}
}

// runFig4 runs a sim document's grid — every configuration in one
// campaign — and assembles one Fig4Data per configuration.
func (c *campaigns) runFig4(doc *config.Document) ([]expers.Fig4Data, error) {
	results, err := c.run(doc)
	if err != nil {
		return nil, err
	}
	return expers.AssembleFig4(results)
}

// logCell is the Fig. 4 grid's per-cell progress line on stderr.
func logCell(r runner.JobResult) {
	if r.Status == runner.StatusDone {
		fmt.Fprintf(os.Stderr, "  %s\n", r.Output.(cpusim.Result))
	}
}

// renderTable writes one table as text or CSV, matching the historical
// binaries' output byte for byte.
func renderTable(t *report.Table, csv bool) error {
	if csv {
		if err := t.RenderCSV(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		return nil
	}
	return t.Render(os.Stdout)
}

func runSingle(cfg cpusim.SystemConfig, name string, opts cpusim.RunOptions, timeline string) error {
	w, ok := trace.ByName(name)
	if !ok {
		return fmt.Errorf("unknown benchmark %q (known: %v)", name, trace.Names())
	}
	for _, mode := range []core.Mode{core.Baseline, core.SPCS, core.DPCS} {
		var col *obs.Collector
		if timeline != "" && mode == core.DPCS {
			col = &obs.Collector{}
			opts.Sink = col
		} else {
			opts.Sink = nil
		}
		r, err := cpusim.Run(cfg, mode, w, opts)
		if err != nil {
			return err
		}
		fmt.Println(r)
		for _, cr := range []cpusim.CacheResult{r.L1I, r.L1D, r.L2} {
			fmt.Printf("  %-6s acc=%-9d miss=%-8d mr=%.4f wb=%-7d trans=%d E(mJ): static=%.4f dyn=%.4f\n",
				cr.Name, cr.Stats.Accesses, cr.Stats.Misses, cr.Stats.MissRate(),
				cr.Stats.Writebacks, cr.Transitions,
				cr.Energy.StaticJ*1e3, cr.Energy.DynamicJ*1e3)
		}
		if col != nil {
			if err := writeTimeline(timeline, col.Events); err != nil {
				return err
			}
			if err := renderTrajectory(col.Events, cfg.ClockHz, r.Cycles); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeTimeline saves the collected policy events as JSON lines.
func writeTimeline(path string, events []obs.PolicyEvent) error {
	sink, err := obs.CreateJSONL(path)
	if err != nil {
		return err
	}
	for _, ev := range events {
		sink.Record(ev)
	}
	if err := sink.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pcs sim: wrote %d policy events to %s\n", len(events), path)
	return nil
}

func renderTrajectory(events []obs.PolicyEvent, clockHz float64, endCycle uint64) error {
	for _, t := range []*report.Table{
		expers.VDDTrajectoryTable(events, clockHz, 32),
		expers.VDDResidencyTable(events, endCycle),
	} {
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func printConfigs(w io.Writer) error {
	t := report.NewTable("System configurations (Table 2)", "Parameter", "Config A", "Config B")
	a, b := cpusim.ConfigA(), cpusim.ConfigB()
	row := func(name string, va, vb any) { t.AddRow(name, fmt.Sprint(va), fmt.Sprint(vb)) }
	row("Clock (GHz)", a.ClockHz/1e9, b.ClockHz/1e9)
	row("L1 size/assoc/hit", fmt.Sprintf("%dKB/%d/%dcyc", a.L1D.Org.SizeBytes>>10, a.L1D.Org.Assoc, a.L1D.HitCycles),
		fmt.Sprintf("%dKB/%d/%dcyc", b.L1D.Org.SizeBytes>>10, b.L1D.Org.Assoc, b.L1D.HitCycles))
	row("L2 size/assoc/hit", fmt.Sprintf("%dMB/%d/%dcyc", a.L2.Org.SizeBytes>>20, a.L2.Org.Assoc, a.L2.HitCycles),
		fmt.Sprintf("%dMB/%d/%dcyc", b.L2.Org.SizeBytes>>20, b.L2.Org.Assoc, b.L2.HitCycles))
	row("Block size (B)", a.L1D.Org.BlockBytes, b.L1D.Org.BlockBytes)
	row("Memory latency (cyc)", a.MemCycles, b.MemCycles)
	row("L1 interval (accesses)", a.L1D.Interval, b.L1D.Interval)
	row("L2 interval (accesses)", a.L2.Interval, b.L2.Interval)
	row("SuperInterval", a.SuperInterval, b.SuperInterval)
	row("Thresholds low/high", fmt.Sprintf("%v/%v", a.LowThreshold, a.HighThreshold),
		fmt.Sprintf("%v/%v", b.LowThreshold, b.HighThreshold))
	row("Voltage penalty (cyc)", a.L2.VoltagePenaltyCycles, b.L2.VoltagePenaltyCycles)
	return t.Render(w)
}
