package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestDeclaredMetrics keeps BENCHMARK.json and the harness in step:
// the same workloads, and the same metric names and units in the same
// order.
func TestDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	type pair struct{ name, unit string }
	check := func(what string, got []pair, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, harness %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].name || got[i].unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %v, harness %v", what, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []pair
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, pair{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, pair{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for these inputs.
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if v, p := tail(xs); v != 90 || p != 90 {
		t.Errorf("tail(1..100) = %v at p%v; want 90 at p90 (ten samples above)", v, p)
	}
	if v, p := tail(xs[:15]); v != 15 || p != 100 {
		t.Errorf("tail(1..15) = %v at p%v; want the maximum", v, p)
	}
}

// TestSmoke runs every workload at a tiny window, end to end and
// traced, and checks the result line names every declared metric with
// its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds pcs and runs every workload")
	}
	tmp := t.TempDir()
	pcs := filepath.Join(tmp, "pcs")
	build := exec.Command("go", "build", "-o", pcs, "./cmd/pcs")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build pcs: %v\n%s", err, out)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// The harness runs from the repository root, as its users run it.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.name, "-seed", "3", "-seconds", "1", "-trace", traced,
				"-tiny", "-pcs", pcs, "-work", tmp, "-record", ""}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", w.name, traced, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var out output
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", w.name, traced, err)
			}
			want := endToEnd
			if traced == "1" {
				want = perLayer
			}
			if len(out.Metrics) != len(want) || out.Attempted < 1 {
				t.Errorf("%s trace=%s: %d metrics, attempted %d; want %d metrics", w.name, traced, len(out.Metrics), out.Attempted, len(want))
			}
			for _, d := range want {
				m, ok := out.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.name, traced, d.name, m, d.unit)
				}
				if !strings.Contains(stdout.String(), d.name) {
					t.Errorf("%s trace=%s: report does not name %s", w.name, traced, d.name)
				}
			}
		}
	}
}
