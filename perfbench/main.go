// Command perfbench is the repository's benchmark. It measures the pcs
// binary built from the checkout it runs in, the way users run it, on
// three workloads (see README.md and BENCHMARK.json at the repository
// root):
//
//	fig4-grid      pcs sim on the examples/fig4.json grid
//	sweep-studies  pcs sweep on examples/sweep.json, cold result store
//	serve-mixed    pcs serve under two closed-loop campaign clients
//
// With -trace 0 it reports the end-to-end metrics, measured with
// tracing off; with -trace 1 it makes a separate traced run and reports
// the per-layer table. Every run checks the program's outputs, and the
// last line of stdout is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; perfbench/run.sh builds pcs and this
// harness first):
//
//	perfbench -workload fig4-grid -seed 1 -seconds 25 -trace 0
//	perfbench compare base.jsonl head.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runDeadline bounds one benchmark run, children included, below the
// three minutes a run may take.
const runDeadline = 170 * time.Second

// env is what every workload needs to know about the run.
type env struct {
	pcs     string // pcs binary built from the checkout
	root    string // checkout root; pcs runs from here
	work    string // scratch directory owned by this run
	seed    uint64
	seconds int
	tiny    bool // smoke-test scale: tiny windows, two repetitions
}

// reps is how many repetitions of a workload's unit of work fit the
// measurement budget at the unit's nominal cost on the reference host,
// a 2-vCPU AMD EPYC VM (at least two). The count depends only on -seconds, never on
// measured speed, so two commits compared at the same -seconds do
// identical work.
func (e *env) reps(nominal time.Duration) int {
	if e.tiny {
		return 2
	}
	n := int(time.Duration(e.seconds) * time.Second / nominal)
	if n < 2 {
		n = 2 // set-up is reported as a median of several launches
	}
	return n
}

// workload is one benchmark input set: how to measure it end to end,
// and how to make its traced per-layer run.
type workload struct {
	name   string
	run    func(context.Context, *env) (*measure, error)
	traced func(context.Context, *env) (*layerRun, error)
}

var workloads = []workload{
	{"fig4-grid", runFig4, tracedFig4},
	{"sweep-studies", runSweep, tracedSweep},
	{"serve-mixed", runServe, tracedServe},
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line the benchmark ends with.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig4-grid, sweep-studies or serve-mixed")
	seed := fs.Uint64("seed", 1, "workload seed (1 is the reference seed the goldens use)")
	seconds := fs.Int("seconds", 25, "measurement budget in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced per-layer run")
	pcs := fs.String("pcs", ".bench_build/bin/pcs", "pcs binary built from this checkout")
	work := fs.String("work", ".bench_build/work", "scratch directory root")
	record := fs.String("record", ".bench_build/results.jsonl", "append each run's fingerprint and result to this file (empty: don't)")
	tiny := fs.Bool("tiny", false, "smoke-test scale: tiny windows, two repetitions")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || (*traceFlag != 0 && *traceFlag != 1) || *seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: need -workload (fig4-grid, sweep-studies, serve-mixed), -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := checkCheckout(root, *pcs); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	pcsPath, _ := filepath.Abs(*pcs)
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	workDir, err := os.MkdirTemp(*work, *name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	e := &env{pcs: pcsPath, root: root, work: workDir, seed: *seed, seconds: *seconds, tiny: *tiny}

	fp := takeFingerprint(e)
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "fingerprint %s\n", fpJSON)

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	var out output
	if *traceFlag == 1 {
		lr, err := wl.traced(ctx, e)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced run: %v\n", wl.name, err)
			return 1
		}
		out = lr.output(wl.name, stdout)
	} else {
		m, err := wl.run(ctx, e)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
			return 1
		}
		out = m.output(wl.name, stdout)
	}
	if *record != "" {
		if err := appendRecord(*record, wl.name, *traceFlag, fp, out); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// checkCheckout refuses to run anywhere but a repository checkout with
// a built pcs: without one there is nothing to measure.
func checkCheckout(root, pcs string) error {
	for _, p := range []string{"go.mod", "cmd/pcs", "examples/fig4.json", "examples/sweep.json"} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return fmt.Errorf("not a repository checkout (missing %s); run from the repository root", p)
		}
	}
	if _, err := os.Stat(pcs); err != nil {
		return fmt.Errorf("pcs binary: %w (perfbench/run.sh builds it)", err)
	}
	return nil
}

// check is one correctness predicate's outcome.
type check struct {
	name   string
	ok     bool
	detail string
}

// checks accumulates predicate outcomes; a failed one makes the run
// incorrect and counts as one failed operation.
type checks []check

func (cs *checks) add(name string, ok bool, format string, args ...any) {
	*cs = append(*cs, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (cs checks) failed() int {
	n := 0
	for _, c := range cs {
		if !c.ok {
			n++
		}
	}
	return n
}

func (cs checks) print(w io.Writer) {
	for _, c := range cs {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %-34s %s\n", status, c.name, c.detail)
	}
}

// endToEnd lists the end-to-end metrics in report order; BENCHMARK.json
// declares the same names and units (TestDeclaredMetrics).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"cell_ms_p50", "ms"},
	{"cell_ms_tail", "ms"},
	{"campaign_ms_p50", "ms"},
	{"campaign_ms_tail", "ms"},
	{"peak_rss_mb", "MB"},
}

// measure is the raw material of one workload's end-to-end run.
type measure struct {
	setupS     []float64 // launch until the first cell starts (or /readyz)
	wallS      []float64 // launch until the last result, per repetition
	minstrPerS []float64 // simulated instructions per host second, per repetition
	cellMS     []float64 // computed simulation cells
	campaignMS []float64 // submit until the last result line, per campaign
	rssMB      []float64 // peak RSS per pcs process
	attempted  int       // cells, requests and checks attempted
	failed     int       // failed or cancelled cells, non-2xx responses
	checks     checks
	notes      []string // extra human-readable lines (e.g. model accuracy)
}

// output reduces the samples to the reported figures and prints the
// human-readable report.
func (m *measure) output(name string, w io.Writer) output {
	cellTail, cellPct := tail(m.cellMS)
	campTail, campPct := tail(m.campaignMS)
	vals := map[string]float64{
		"setup_s":          median(m.setupS),
		"wall_s":           median(m.wallS),
		"sim_minstr_per_s": median(m.minstrPerS),
		"cell_ms_p50":      median(m.cellMS),
		"cell_ms_tail":     cellTail,
		"campaign_ms_p50":  median(m.campaignMS),
		"campaign_ms_tail": campTail,
		"peak_rss_mb":      median(m.rssMB),
	}
	samples := map[string]string{
		"setup_s":          fmt.Sprintf("median of %d launches", len(m.setupS)),
		"wall_s":           fmt.Sprintf("median of %d repetitions", len(m.wallS)),
		"sim_minstr_per_s": fmt.Sprintf("median of %d repetitions", len(m.minstrPerS)),
		"cell_ms_p50":      fmt.Sprintf("n=%d simulation cells", len(m.cellMS)),
		"cell_ms_tail":     fmt.Sprintf("p%.1f of n=%d", cellPct, len(m.cellMS)),
		"campaign_ms_p50":  fmt.Sprintf("n=%d campaigns", len(m.campaignMS)),
		"campaign_ms_tail": fmt.Sprintf("p%.1f of n=%d", campPct, len(m.campaignMS)),
		"peak_rss_mb":      fmt.Sprintf("median of %d processes", len(m.rssMB)),
	}
	out := output{Attempted: m.attempted + len(m.checks), Failed: m.failed + m.checks.failed(),
		Metrics: map[string]metric{}}
	fmt.Fprintf(w, "== %s: end-to-end (tracing off) ==\n", name)
	for _, d := range endToEnd {
		v := vals[d.name]
		fmt.Fprintf(w, "  %-18s %12.4f %-9s %s\n", d.name, v, d.unit, samples[d.name])
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for _, n := range m.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d (failed_frac %.4f)\n", out.Attempted, out.Failed,
		float64(out.Failed)/float64(max(out.Attempted, 1)))
	m.checks.print(w)
	out.Correct = m.checks.failed() == 0 && m.failed == 0 && m.attempted > 0 && allFinite(out.Metrics)
	return out
}

func allFinite(ms map[string]metric) bool {
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return false
		}
	}
	return true
}

// appendRecord archives one run with its fingerprint, for compare.
func appendRecord(path, wl string, traced int, fp fingerprint, out output) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	line, err := json.Marshal(record{Workload: wl, Trace: traced, Fingerprint: fp, Result: out})
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	return nil
}

type record struct {
	Workload    string      `json:"workload"`
	Trace       int         `json:"trace"`
	Fingerprint fingerprint `json:"fingerprint"`
	Result      output      `json:"result"`
}

// compareCmd prints per-workload, per-metric medians of two record
// files side by side. It refuses to compare records from different
// hosts or toolchains, or taken at different seeds: such a difference
// says nothing about the commits.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE.jsonl HEAD.jsonl")
		return 2
	}
	var sides [2][]record
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
			return 1
		}
		sides[i] = recs
	}
	if err := comparable(sides[0], sides[1]); err != nil {
		fmt.Fprintf(stderr, "perfbench compare: refused: %v\n", err)
		return 1
	}
	type key struct{ wl, metric string }
	vals := [2]map[key][]float64{{}, {}}
	units := map[key]string{}
	for i, recs := range sides {
		for _, r := range recs {
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, name}
				vals[i][k] = append(vals[i][k], m.Value)
				units[k] = m.Unit
			}
		}
	}
	var keys []key
	for k := range units {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].wl != keys[j].wl {
			return keys[i].wl < keys[j].wl
		}
		return keys[i].metric < keys[j].metric
	})
	// spread is a side's interquartile range over its median: a change
	// smaller than the base's spread is not resolved by these runs.
	spread := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		return (q3 - q1) / median(xs)
	}
	fmt.Fprintf(stdout, "%-14s %-30s %14s %14s %9s %8s %8s %s\n", "workload", "metric", "base median", "head median", "change", "spread", "spread", "unit")
	for _, k := range keys {
		b, h := vals[0][k], vals[1][k]
		mb, mh := median(b), median(h)
		fmt.Fprintf(stdout, "%-14s %-30s %14.4f %14.4f %+8.2f%% %8.4f %8.4f %s (n=%d/%d)\n",
			k.wl, k.metric, mb, mh, 100*(mh-mb)/mb, spread(b), spread(h), units[k], len(b), len(h))
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	lines, err := readLines(path)
	if err != nil {
		return nil, err
	}
	recs := make([]record, 0, len(lines))
	for i, l := range lines {
		var r record
		if err := json.Unmarshal(l, &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return recs, nil
}

// comparable checks both sides come from one host and toolchain, and
// that each workload was measured at the same set of seeds.
func comparable(a, b []record) error {
	host := a[0].Fingerprint.host()
	seeds := [2]map[string][]string{{}, {}}
	for i, recs := range [][]record{a, b} {
		for _, r := range recs {
			if h := r.Fingerprint.host(); h != host {
				return fmt.Errorf("host fingerprints differ: %q vs %q", host, h)
			}
			k := r.Workload + "/trace=" + strconv.Itoa(r.Trace)
			seeds[i][k] = append(seeds[i][k], strconv.FormatUint(r.Fingerprint.Seed, 10))
		}
	}
	for k, s := range seeds[0] {
		sort.Strings(s)
		t := seeds[1][k]
		sort.Strings(t)
		if strings.Join(s, ",") != strings.Join(t, ",") {
			return fmt.Errorf("%s: seeds differ: [%s] vs [%s]", k, strings.Join(s, ","), strings.Join(t, ","))
		}
	}
	if len(seeds[0]) != len(seeds[1]) {
		return errors.New("the two files cover different workloads")
	}
	return nil
}
