package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// sweep-studies runs examples/sweep.json at its own window, so stdout at
// seed 1 must equal sweep_output.txt; sweepDigest is that file's SHA-256.
const (
	sweepNominal = 13 * time.Second
	sweepDigest  = "489e41c0dd432cee625b27a0e46b72b4dfb4328f91d303fe7a4d626335aa5a76"
)

// sweepSections are the study tables examples/sweep.json prints.
var sweepSections = []string{
	"Min-VDD (99% yield) vs associativity and block size, 64 KB cache",
	"VDD level count vs fault-map size and SPCS static power (L1-A)",
	"Bit-cell designs vs PCS (L1 Config A, 99% yield)",
	"Leakage-reduction techniques on one L1 workload (data-array leakage, relative)",
	"DPCS policy ablation (Config A)",
}

func sweepArgs(e *env, runs, cache string) []string {
	args := []string{"sweep", "-spec", "examples/sweep.json", "-seed", strconv.FormatUint(e.seed, 10)}
	if e.tiny {
		args = append(args, "-instr", "100000")
	}
	if runs != "" {
		args = append(args, "-runs", runs)
	}
	return append(args, "-cache", cache)
}

func runSweep(ctx context.Context, e *env) (*measure, error) {
	m := &measure{}
	var outs [][]byte
	for i := 0; i < e.reps(sweepNominal); i++ {
		runs := filepath.Join(e.work, fmt.Sprintf("sweep-%d", i))
		cache := filepath.Join(e.work, fmt.Sprintf("sweep-cache-%d", i))
		l, err := runPCS(ctx, e, runs, sweepArgs(e, runs, cache)...)
		if err != nil {
			return nil, err
		}
		if err := m.addCLILaunch(l); err != nil {
			return nil, err
		}
		cached := 0
		for _, c := range l.cells() {
			if c.cached {
				cached++
			}
		}
		m.checks.add(fmt.Sprintf("sweep.cold.%d", i), cached == 0, "%d of %d cells served from a fresh store", cached, len(l.cells()))
		outs = append(outs, l.stdout)
		_ = os.RemoveAll(runs)
		_ = os.RemoveAll(cache)
	}
	checkSweep(&m.checks, e, outs)
	return m, nil
}

// checkSweep checks the sweep's stdout: identical on every repetition,
// equal to sweep_output.txt at seed 1, and at any seed every study table
// present with every DPCS variant saving energy.
func checkSweep(cs *checks, e *env, outs [][]byte) {
	same := true
	for _, o := range outs[1:] {
		same = same && string(o) == string(outs[0])
	}
	cs.add("sweep.deterministic", same, "%d repetitions print identical tables", len(outs))
	if e.seed == 1 && !e.tiny {
		got := digest(outs[0])
		cs.add("sweep.golden", got == sweepDigest, "stdout sha256 %s (sweep_output.txt %s)", short(got), short(sweepDigest))
	}
	secs := sections(outs[0])
	present := 0
	for _, s := range sweepSections {
		if len(secs[s]) > 0 {
			present++
		}
	}
	var dpcs [][]string
	for title, rows := range secs {
		if len(title) > 27 && title[:27] == "DPCS parameter sensitivity " {
			dpcs = rows
		}
	}
	cs.add("sweep.tables", present == len(sweepSections) && len(dpcs) > 0, "%d of %d study tables present", present+min(len(dpcs), 1), len(sweepSections)+1)
	saves := len(dpcs) > 0
	for _, r := range append(dpcs, secs["DPCS policy ablation (Config A)"]...) {
		saves = saves && field(r, -3) > 0
	}
	cs.add("sweep.dpcs_saves", saves, "every DPCS sensitivity and ablation row saves energy")
}
