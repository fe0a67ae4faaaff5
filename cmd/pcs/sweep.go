package main

import (
	"flag"
	"os"

	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/expers"
	"repro/internal/report"
)

// sweepCommand explores the design space around the paper's mechanism —
// the old pcs-sweep binary as a subcommand. Studies always run in the
// canonical order (assoc, levels, cells, leakage, dpcs, ablate, mechs)
// whichever way they are selected, so output stays comparable across
// invocations.
func sweepCommand() *cli.Command {
	var (
		doc     = gridDocument(config.Document{Sweep: &config.SweepSpec{}})
		sw      = doc.Sweep
		study   = make(map[string]*bool, len(expers.StudyNames()))
		jsonOut bool
		camp    = campaigns{cmd: "sweep"}
		prof    profiler
	)
	summaries := map[string]string{
		"assoc":   "sweep associativity and block size vs min-VDD",
		"levels":  "sweep the number of VDD levels",
		"cells":   "compare 6T/8T/10T bit cells with and without PCS",
		"leakage": "compare drowsy/decay/SPCS leakage techniques",
		"dpcs":    "sweep DPCS policy parameters",
		"ablate":  "run the DPCS policy ablation study",
		"mechs":   "compare registered fault-tolerance mechanisms at 99% yield",
	}
	return &cli.Command{
		Name:    "sweep",
		Summary: "run the design-space studies (min-VDD geometry, VDD levels, cells, leakage, DPCS policy, ablation, mechanisms)",
		Usage:   "[-spec file] [-assoc] [-levels] [-cells] [-leakage] [-dpcs] [-ablate] [-mechs] [flags]",
		SetFlags: func(fs *flag.FlagSet) {
			fs.StringVar(&camp.spec, "spec", "", "experiment spec file (.json or .toml) with a \"sweep\" section")
			for _, name := range expers.StudyNames() {
				study[name] = fs.Bool(name, false, summaries[name])
			}
			fs.Var((*listFlag[string])(&sw.Mechanisms), "mechanisms",
				"comma-separated `list` of mechanisms for -mechs (default: every registered mechanism)")
			fs.StringVar(&sw.Bench, "bench", sw.Bench, "benchmark for -dpcs")
			fs.Uint64Var(&sw.SimInstr, "instr", sw.SimInstr, "instructions for -dpcs, -leakage and -ablate runs")
			fs.Uint64Var(&doc.Seed, "seed", doc.Seed, "seed pinned into the simulation-backed studies")
			fs.IntVar(&doc.Workers, "workers", doc.Workers, "campaign worker count (0 = GOMAXPROCS)")
			fs.BoolVar(&jsonOut, "json", false, "emit tables as JSON instead of text")
			fs.StringVar(&camp.runsRoot, "runs", "", "archive campaign records under this directory (e.g. runs)")
			fs.BoolVar(&camp.progress, "progress", false, "log campaign progress to stderr")
			fs.BoolVar(&camp.timeline, "timeline", false, "with -runs: record per-job DPCS policy timelines (policy-<index>.jsonl)")
			fs.BoolVar(&camp.trace, "trace", false, "with -runs: record campaign trace spans (spans.jsonl, for pcs report -perfetto)")
			fs.StringVar(&camp.cacheDir, "cache", "", "content-addressed result cache directory (memoizes study cells across runs)")
			prof.register(fs)
		},
		Run: func(fs *flag.FlagSet) error {
			stopProf, err := prof.start()
			if err != nil {
				return err
			}
			defer stopProf()
			if err := camp.load(fs, doc); err != nil {
				return err
			}
			// Study flags beat the spec's list, which beats "all of them".
			var selected []string
			for _, name := range expers.StudyNames() {
				if *study[name] {
					selected = append(selected, name)
				}
			}
			if len(selected) > 0 {
				sw.Studies = selected
			}
			results, err := camp.run(doc)
			if err != nil {
				return err
			}
			studies, err := sw.StudyList(doc.Seed)
			if err != nil {
				return err
			}
			for _, st := range studies {
				t, err := st.Table(results[:len(st.Jobs)])
				if err != nil {
					return err
				}
				results = results[len(st.Jobs):]
				if err := renderTableJSON(t, jsonOut); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// renderTableJSON writes one table as text or, with jsonOut, as JSON.
func renderTableJSON(t *report.Table, jsonOut bool) error {
	if jsonOut {
		return t.RenderJSON(os.Stdout)
	}
	return t.Render(os.Stdout)
}
