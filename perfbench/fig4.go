package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// The fig4-grid window is an eighth of fig4_output.txt's (24M measured,
// 2M warm-up instructions per cell), so two repetitions of the 96-cell
// grid fit the 25-second budget on a 2-vCPU AMD EPYC VM. Stdout
// at seed 1 is pinned by fig4Digest, taken from the commit that
// introduced the benchmark at this window.
const (
	fig4SimInstr    = 3_000_000
	fig4WarmupInstr = 250_000
	fig4Nominal     = 9500 * time.Millisecond
	fig4Digest      = "95e3e5710b49f516a8e19b6f7877ba0f02636a9f157882875454b886d3c60ebd"
)

// Paper reference values (EXPERIMENTS.md, Paper column).
const (
	paperSPCSSaving    = 54.9
	paperDPCSSaving    = 69.6
	paperDPCSOverheadA = 2.6
	paperDPCSOverheadB = 4.4
)

func fig4Args(e *env, runs string) []string {
	instr, warmup := fig4SimInstr, fig4WarmupInstr
	if e.tiny {
		instr, warmup = 40_000, 4_000
	}
	args := []string{"sim", "-q", "-spec", "examples/fig4.json",
		"-instr", strconv.Itoa(instr), "-warmup", strconv.Itoa(warmup),
		"-seed", strconv.FormatUint(e.seed, 10)}
	if runs != "" {
		args = append(args, "-runs", runs)
	}
	return args
}

func runFig4(ctx context.Context, e *env) (*measure, error) {
	m := &measure{}
	var outs [][]byte
	for i := 0; i < e.reps(fig4Nominal); i++ {
		runs := filepath.Join(e.work, fmt.Sprintf("fig4-%d", i))
		l, err := runPCS(ctx, e, runs, fig4Args(e, runs)...)
		if err != nil {
			return nil, err
		}
		if err := m.addCLILaunch(l); err != nil {
			return nil, err
		}
		outs = append(outs, l.stdout)
		_ = os.RemoveAll(runs) // scratch; the whole work dir goes at exit anyway
	}
	acc := checkFig4(&m.checks, e, outs)
	m.notes = append(m.notes, acc.lines()...)
	return m, nil
}

// addCLILaunch folds one pcs sim/sweep launch into the samples. For a
// CLI user the launch is the campaign request: submitted at exec, done
// when pcs exits with its tables printed.
func (m *measure) addCLILaunch(l *launch) error {
	first, ok := l.firstJobStart()
	if !ok {
		return fmt.Errorf("launch recorded no job start")
	}
	m.setupS = append(m.setupS, first.Sub(l.start).Seconds())
	m.wallS = append(m.wallS, l.wall.Seconds())
	m.campaignMS = append(m.campaignMS, ms(l.wall))
	m.rssMB = append(m.rssMB, l.rssMB)
	var instr uint64
	for _, c := range l.cells() {
		m.attempted++
		if c.status != "job_done" {
			m.failed++
		}
		if isSimCell(c) {
			m.cellMS = append(m.cellMS, c.ms)
		}
		instr += c.instr
	}
	m.minstrPerS = append(m.minstrPerS, float64(instr)/1e6/l.wall.Seconds())
	return nil
}

// fig4Accuracy is the model's error against the paper's headline
// numbers, in percentage points, each averaged over Config A and B.
// These are simulated figures: they repeat exactly at a fixed seed.
type fig4Accuracy struct {
	spcsErr, dpcsErr, overheadErr float64
}

func (a fig4Accuracy) lines() []string {
	return []string{
		fmt.Sprintf("model accuracy (simulated, vs paper): spcs_saving_err_pp %.4f  dpcs_saving_err_pp %.4f  dpcs_overhead_err_pp %.4f",
			a.spcsErr, a.dpcsErr, a.overheadErr),
	}
}

// checkFig4 checks the grid's stdout: identical on every repetition,
// byte-pinned at seed 1, and of the paper's shape at any seed. It
// returns the model-accuracy figures of the first output.
func checkFig4(cs *checks, e *env, outs [][]byte) fig4Accuracy {
	same := true
	for _, o := range outs[1:] {
		same = same && string(o) == string(outs[0])
	}
	cs.add("fig4.deterministic", same, "%d repetitions print identical tables", len(outs))
	if e.seed == 1 && !e.tiny {
		got := digest(outs[0])
		cs.add("fig4.golden", got == fig4Digest, "stdout sha256 %s (pinned %s)", short(got), short(fig4Digest))
	}
	secs := sections(outs[0])
	var acc fig4Accuracy
	overhead, meanOverhead := map[string]float64{}, map[string]float64{}
	for _, cfg := range []string{"A", "B"} {
		var dpcs []float64
		for _, r := range secs["Fig. 4 — execution time overhead (%), Config "+cfg] {
			dpcs = append(dpcs, field(r, -1))
		}
		meanOverhead[cfg] = mean(dpcs)
		rows := secs["Fig. 4 — total cache energy (normalised), Config "+cfg]
		saving := len(rows) == 16
		for _, r := range rows {
			spcs, dpcs := field(r, -2), field(r, -1)
			saving = saving && spcs > 0 && dpcs > 0
		}
		cs.add("fig4.saves."+cfg, saving, "all %d rows save energy under SPCS and DPCS", len(rows))
		sum := headline(secs["Headline summary, Config "+cfg])
		ms, md := sum["Mean SPCS energy saving"], sum["Mean DPCS energy saving"]
		cs.add("fig4.dpcs_ge_spcs."+cfg, md >= ms, "mean DPCS %.1f%% >= mean SPCS %.1f%%", md, ms)
		overhead[cfg] = sum["Max DPCS exec overhead"]
		acc.spcsErr += math.Abs(ms-paperSPCSSaving) / 2
		acc.dpcsErr += math.Abs(md-paperDPCSSaving) / 2
	}
	// The configuration-level claim, B pays more than A under DPCS, is
	// checked on the mean over the 16 workloads. The maximum is one
	// workload's thrashing at this short window and its order between
	// the configs changes with the seed (seed 33: A 11.45 %, B 9.49 %,
	// while the means are 2.78 % and 6.31 %).
	cs.add("fig4.b_overhead_ge_a", meanOverhead["B"] >= meanOverhead["A"],
		"mean DPCS overhead B %.2f%% >= A %.2f%% (max B %.2f%%, A %.2f%%)",
		meanOverhead["B"], meanOverhead["A"], overhead["B"], overhead["A"])
	acc.overheadErr = (math.Abs(overhead["A"]-paperDPCSOverheadA) + math.Abs(overhead["B"]-paperDPCSOverheadB)) / 2
	return acc
}

// headline reads a "Metric  Value %" summary table.
func headline(rows [][]string) map[string]float64 {
	out := map[string]float64{}
	for _, r := range rows {
		if len(r) < 3 {
			continue
		}
		out[strings.Join(r[:len(r)-2], " ")] = field(r, -2)
	}
	return out
}

// field parses row[i] (negative i counts from the end) as a number;
// NaN when absent or malformed, which fails every comparison.
func field(row []string, i int) float64 {
	if i < 0 {
		i += len(row)
	}
	if i < 0 || i >= len(row) {
		return math.NaN()
	}
	v, err := strconv.ParseFloat(row[i], 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// sections splits pcs's aligned-table output into its "== title =="
// sections, each a list of data rows split into fields (the header and
// dashed rule dropped).
func sections(out []byte) map[string][][]string {
	secs := map[string][][]string{}
	var title string
	rule := false
	for _, line := range bytes.Split(out, []byte("\n")) {
		s := string(line)
		switch {
		case strings.HasPrefix(s, "== ") && strings.HasSuffix(s, " =="):
			title, rule = strings.TrimSuffix(strings.TrimPrefix(s, "== "), " =="), false
			secs[title] = nil
		case strings.TrimSpace(s) == "":
			title = ""
		case title == "":
		case !rule:
			rule = strings.HasPrefix(s, "---")
		default:
			secs[title] = append(secs[title], strings.Fields(s))
		}
	}
	return secs
}
