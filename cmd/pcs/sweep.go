package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/expers"
	"repro/internal/report"
	"repro/internal/runner"
)

// sweepCommand explores the design space around the paper's mechanism —
// the old pcs-sweep binary as a subcommand. Studies always run in the
// canonical order (assoc, levels, cells, leakage, dpcs, ablate, mechs)
// whichever way they are selected, so output stays comparable across
// invocations.
func sweepCommand() *cli.Command {
	var (
		spec     string
		study    = make(map[string]*bool, len(expers.StudyNames()))
		bench    string
		instr    uint64
		seed     uint64
		jsonOut  bool
		camp     = campaigns{cmd: "sweep"}
		mechsCSV string
		prof     profiler
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
			fs.StringVar(&spec, "spec", "", "experiment spec file (.json or .toml) with a \"sweep\" section")
			for _, name := range expers.StudyNames() {
				study[name] = fs.Bool(name, false, summaries[name])
			}
			fs.StringVar(&mechsCSV, "mechanisms", "",
				"comma-separated mechanism selection for -mechs (default: every registered mechanism)")
			fs.StringVar(&bench, "bench", "bzip2.s", "benchmark for -dpcs")
			fs.Uint64Var(&instr, "instr", 4_000_000, "instructions for -dpcs, -leakage and -ablate runs")
			fs.Uint64Var(&seed, "seed", 1, "seed pinned into the simulation-backed studies")
			fs.IntVar(&camp.workers, "workers", 0, "campaign worker count (0 = GOMAXPROCS)")
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
			// Study selection: explicit flags beat the spec's list beats
			// "all of them".
			var selected []string
			for _, name := range expers.StudyNames() {
				if *study[name] {
					selected = append(selected, name)
				}
			}
			if spec != "" {
				doc, err := config.Load(spec)
				if err != nil {
					return err
				}
				if doc.Sweep == nil {
					return fmt.Errorf("%s: pcs sweep needs a \"sweep\" spec section", spec)
				}
				set := flagsSet(fs)
				if len(selected) == 0 {
					selected = doc.Sweep.Studies
				}
				if !set["bench"] {
					bench = doc.Sweep.Bench
				}
				if !set["instr"] {
					instr = doc.Sweep.SimInstr
				}
				if !set["seed"] {
					seed = doc.Seed
				}
				if !set["workers"] && doc.Workers > 0 {
					camp.workers = doc.Workers
				}
				if !set["mechanisms"] && len(doc.Sweep.Mechanisms) > 0 {
					mechsCSV = strings.Join(doc.Sweep.Mechanisms, ",")
				}
			}
			mechNames, err := parseMechanisms(mechsCSV)
			if err != nil {
				return err
			}
			if len(selected) == 0 {
				selected = expers.StudyNames()
			}
			if err := camp.open(); err != nil {
				return err
			}
			// Canonical order regardless of selection order.
			for _, name := range expers.StudyNames() {
				if !contains(selected, name) {
					continue
				}
				var st expers.Study
				if name == "mechs" && mechNames != nil {
					st, err = expers.MechStudy(mechNames)
				} else {
					st, err = expers.StudyByName(name, bench, instr, seed)
				}
				if err != nil {
					return err
				}
				results, err := camp.runCampaign(st.Name, runner.Campaign{Name: st.Name, Seed: seed, Jobs: st.Jobs})
				if err != nil {
					return err
				}
				t, err := st.Table(results)
				if err != nil {
					return err
				}
				if err := renderTableJSON(t, jsonOut); err != nil {
					return err
				}
			}
			camp.summary()
			return nil
		},
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// renderTableJSON writes one table as text or, with jsonOut, as JSON.
func renderTableJSON(t *report.Table, jsonOut bool) error {
	if jsonOut {
		return t.RenderJSON(os.Stdout)
	}
	return t.Render(os.Stdout)
}
