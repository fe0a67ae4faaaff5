package main

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/expers"
	"repro/internal/report"
)

// multicoreCommand runs the multi-core extension (the paper's Sec. 5
// future work): N cores with private power/capacity-scaled L1s over one
// shared, coherently-maintained, PCS-managed L2 — the old pcs-multicore
// binary as a subcommand. The core-count × policy grid goes through the
// same spec expansion the server uses, so a -spec file and the flag
// form produce identical campaigns.
func multicoreCommand() *cli.Command {
	var (
		doc     = gridDocument(config.Document{Multicore: &config.MulticoreSpec{}})
		ms      = doc.Multicore
		jsonOut bool
		camp    = campaigns{cmd: "multicore"}
	)
	return &cli.Command{
		Name:    "multicore",
		Summary: "run the multi-core extension (shared PCS-managed L2, core-count x policy grid)",
		Usage:   "[-spec file] [-cores 1,2,4] [-bench name] [-instr N] [flags]",
		SetFlags: func(fs *flag.FlagSet) {
			fs.StringVar(&camp.spec, "spec", "", "experiment spec file (.json or .toml) with a \"multicore\" section")
			fs.Var((*listFlag[int])(&ms.Cores), "cores", "comma-separated `list` of core counts to sweep")
			fs.StringVar(&ms.Bench, "bench", ms.Bench, "workload run on every core")
			fs.Uint64Var(&ms.InstrPerCore, "instr", ms.InstrPerCore, "measured instructions per core")
			fs.Uint64Var(&ms.WarmupInstr, "warmup", ms.WarmupInstr, "warm-up instructions per core")
			fs.Float64Var(&ms.SharedFrac, "shared", ms.SharedFrac, "fraction of data accesses to the shared region")
			fs.StringVar(&ms.Config, "config", ms.Config, "system configuration: A or B")
			fs.Uint64Var(&doc.Seed, "seed", doc.Seed, "seed")
			fs.IntVar(&doc.Workers, "workers", doc.Workers, "campaign worker count (0 = GOMAXPROCS)")
			fs.BoolVar(&jsonOut, "json", false, "emit the table as JSON instead of text")
			fs.StringVar(&camp.runsRoot, "runs", "", "archive campaign records under this directory (e.g. runs)")
			fs.BoolVar(&camp.progress, "progress", false, "log campaign progress to stderr")
			fs.BoolVar(&camp.trace, "trace", false, "with -runs: record campaign trace spans (spans.jsonl, for pcs report -perfetto)")
			fs.StringVar(&camp.cacheDir, "cache", "", "content-addressed result cache directory (memoizes grid cells across runs)")
		},
		Run: func(fs *flag.FlagSet) error {
			if err := camp.load(fs, doc); err != nil {
				return err
			}
			results, err := camp.run(doc)
			if err != nil {
				return err
			}

			cfgName := strings.ToUpper(ms.Config)
			t := report.NewTable(
				fmt.Sprintf("Multi-core PCS: %s on Config %s, %d instr/core, %.0f%% shared data",
					ms.Bench, cfgName, ms.InstrPerCore, ms.SharedFrac*100),
				"Cores", "Policy", "Cycles (max core)", "Exec ovh %", "L2 misses", "Coh. invals",
				"Cache E (mJ)", "E saving %")
			i := 0
			for _, n := range ms.Cores {
				var baseCycles uint64
				var baseE float64
				for _, mode := range []string{"baseline", "SPCS", "DPCS"} {
					out := results[i].Output.(expers.MulticoreOutput)
					i++
					if mode == "baseline" {
						baseCycles, baseE = out.GlobalCycles, out.TotalCacheEnergyJ
					}
					t.AddRow(n, out.Mode, out.GlobalCycles,
						fmt.Sprintf("%+.2f", (float64(out.GlobalCycles)/float64(baseCycles)-1)*100),
						out.L2Misses, out.CoherenceInvalidations,
						fmt.Sprintf("%.3f", out.TotalCacheEnergyJ*1e3),
						fmt.Sprintf("%.1f", (1-out.TotalCacheEnergyJ/baseE)*100))
				}
			}
			return renderTableJSON(t, jsonOut)
		},
	}
}
