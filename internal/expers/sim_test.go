package expers

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpusim"
	"repro/internal/obs"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/trace"
)

// miniFig4 runs a reduced Fig. 4 (two benchmarks, short windows) to keep
// the unit-test suite fast; the full run lives in cmd/pcs-sim and the
// root benchmarks.
func miniFig4(t *testing.T) Fig4Data {
	t.Helper()
	cfg := cpusim.ConfigA()
	opts := cpusim.RunOptions{WarmupInstr: 100_000, SimInstr: 400_000, Seed: 1}
	data := Fig4Data{Config: cfg.Name}
	for _, name := range []string{"hmmer.s", "libquantum.s"} {
		w, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		row := Fig4Row{Workload: name}
		var err error
		if row.Baseline, err = cpusim.Run(cfg, core.Baseline, w, opts); err != nil {
			t.Fatal(err)
		}
		if row.SPCS, err = cpusim.Run(cfg, core.SPCS, w, opts); err != nil {
			t.Fatal(err)
		}
		if row.DPCS, err = cpusim.Run(cfg, core.DPCS, w, opts); err != nil {
			t.Fatal(err)
		}
		data.Rows = append(data.Rows, row)
	}
	return data
}

func TestFig4RowMetrics(t *testing.T) {
	d := miniFig4(t)
	for _, r := range d.Rows {
		sS := r.EnergySaving(core.SPCS)
		sD := r.EnergySaving(core.DPCS)
		if sS < 0.3 || sS > 0.8 {
			t.Errorf("%s SPCS saving %v implausible", r.Workload, sS)
		}
		if sD < sS-0.02 {
			t.Errorf("%s DPCS saving %v well below SPCS %v", r.Workload, sD, sS)
		}
		if ov := r.ExecOverhead(core.SPCS); ov < -0.01 || ov > 0.05 {
			t.Errorf("%s SPCS overhead %v", r.Workload, ov)
		}
		if ov := r.ExecOverhead(core.DPCS); ov < -0.01 || ov > 0.10 {
			t.Errorf("%s DPCS overhead %v", r.Workload, ov)
		}
		if r.EnergySaving(core.Baseline) != 0 || r.ExecOverhead(core.Baseline) != 0 {
			t.Error("baseline self-comparison nonzero")
		}
	}
}

func TestSummarise(t *testing.T) {
	d := miniFig4(t)
	s := Summarise(d)
	if s.Config != "A" {
		t.Error("config label")
	}
	if s.MeanSavingSPCS <= 0 || s.MeanSavingDPCS <= 0 {
		t.Error("zero savings")
	}
	if s.MaxOverheadDPCS < 0 {
		t.Error("negative max overhead")
	}
	if s.MeanSavingDPCS < s.MeanSavingSPCS-0.02 {
		t.Errorf("mean DPCS %v below SPCS %v", s.MeanSavingDPCS, s.MeanSavingSPCS)
	}
}

func TestFig4Tables(t *testing.T) {
	d := miniFig4(t)
	for _, tbl := range []interface {
		Render(w *strings.Builder) error
	}{} {
		_ = tbl
	}
	var b strings.Builder
	if err := Fig4PowerTable(d, "L1").Render(&b); err != nil {
		t.Fatal(err)
	}
	if err := Fig4PowerTable(d, "L2").Render(&b); err != nil {
		t.Fatal(err)
	}
	if err := Fig4OverheadTable(d).Render(&b); err != nil {
		t.Fatal(err)
	}
	if err := Fig4EnergyTable(d).Render(&b); err != nil {
		t.Fatal(err)
	}
	if err := SummaryTable(Summarise(d)).Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"hmmer.s", "libquantum.s", "SPCS", "DPCS", "Mean SPCS energy saving"} {
		if !strings.Contains(out, want) {
			t.Errorf("tables missing %q", want)
		}
	}
}

func TestFig4RunsWholeSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := cpusim.ConfigA()
	opts := cpusim.RunOptions{WarmupInstr: 20_000, SimInstr: 60_000, Seed: 1}
	d, _, err := Fig4Grid(context.Background(), cfg, trace.Suite(), opts, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 16 {
		t.Fatalf("%d rows", len(d.Rows))
	}
	for _, r := range d.Rows {
		if r.Baseline.TotalCacheEnergyJ <= 0 {
			t.Errorf("%s zero baseline energy", r.Workload)
		}
	}
}

// TestFig4ParallelMatchesSerial asserts the worker-pool grid produces
// byte-identical Fig4Data to a serial loop of direct simulations: every cell pins the same
// RunOptions.Seed and owns its own System, so worker count and
// completion order cannot influence any simulated result.
func TestFig4ParallelMatchesSerial(t *testing.T) {
	cfg := cpusim.ConfigA()
	opts := cpusim.RunOptions{WarmupInstr: 20_000, SimInstr: 80_000, Seed: 7}
	var workloads []trace.Workload
	for _, name := range []string{"hmmer.s", "mcf.s", "libquantum.s"} {
		w, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		workloads = append(workloads, w)
	}
	serial := Fig4Data{Config: cfg.Name}
	for _, w := range workloads {
		row := Fig4Row{Workload: w.Name}
		var err error
		if row.Baseline, err = cpusim.Run(cfg, core.Baseline, w, opts); err != nil {
			t.Fatal(err)
		}
		if row.SPCS, err = cpusim.Run(cfg, core.SPCS, w, opts); err != nil {
			t.Fatal(err)
		}
		if row.DPCS, err = cpusim.Run(cfg, core.DPCS, w, opts); err != nil {
			t.Fatal(err)
		}
		serial.Rows = append(serial.Rows, row)
	}
	for _, workers := range []int{1, 4} {
		parallel, _, err := Fig4Grid(context.Background(), cfg, workloads, opts, runner.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("workers=%d: parallel Fig4Data diverges from serial:\nserial   %+v\nparallel %+v",
				workers, serial, parallel)
		}
	}
}

// TestFig4CellPolicySink checks a DPCS fig4-cell delivers its policy
// decisions to the PolicySink on the job context, as cpusim jobs do.
func TestFig4CellPolicySink(t *testing.T) {
	w, _ := trace.ByName("bzip2.s")
	jobs, err := Fig4CellJobs(cpusim.ConfigA(), []trace.Workload{w},
		cpusim.RunOptions{WarmupInstr: 10_000, SimInstr: 100_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dpcs := jobs[2]
	if !strings.HasSuffix(dpcs.Name, "/DPCS") {
		t.Fatalf("job 2 is %s, want the DPCS cell", dpcs.Name)
	}
	fn, _ := NewCampaignRegistry().Lookup("fig4-cell")
	col := &obs.Collector{}
	out, err := fn(obs.ContextWithPolicySink(context.Background(), col), 0, dpcs.Params)
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Events) == 0 {
		t.Fatal("DPCS fig4-cell delivered no policy events to the context sink")
	}
	if r := out.(cpusim.Result); r.Mode != core.DPCS || r.TotalCacheEnergyJ <= 0 {
		t.Fatalf("implausible output %+v", r)
	}
}

// TestStaleOutputSchemaRecomputes seeds the result store, under the
// current cache key, with entries in the two retired simulation output
// schemas: the untagged CamelCase cpusim.Result a fig4-cell used to
// store and the snake_case summary a cpusim job used to store. Both
// must be recomputed rather than decoded to zero energy, and the
// recomputed entry must then serve the next run.
func TestStaleOutputSchemaRecomputes(t *testing.T) {
	w, _ := trace.ByName("bzip2.s")
	cells, err := Fig4CellJobs(cpusim.ConfigA(), []trace.Workload{w},
		cpusim.RunOptions{WarmupInstr: 5_000, SimInstr: 20_000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		job   runner.Spec
		stale string
	}{
		{cells[1], `{"Workload":"bzip2.s","Config":"A","Mode":1,"Instructions":20000,"Cycles":1,` +
			`"Seconds":0,"IPC":1,"L1I":{},"L1D":{},"L2":{},"TotalCacheEnergyJ":0}`},
		{mustSpec(t, "cpusim", "old", smallSimParams("SPCS", 4)),
			`{"workload":"bzip2.s","config":"A","mode":"SPCS","instructions":30000,"cycles":1,"ipc":1,` +
				`"l1i_energy_j":0,"l1d_energy_j":0,"l2_energy_j":0,"total_cache_energy_j":0,"l2_transitions":0}`},
	} {
		store, err := resultstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		key, err := resultstore.Key(tc.job.Kind, tc.job.Params, 4, "test")
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(key, []byte(tc.stale)); err != nil {
			t.Fatal(err)
		}
		camp := runner.Campaign{Name: "stale", Seed: 1, Jobs: []runner.Spec{tc.job}}
		opts := runner.Options{Workers: 1, Cache: store, CodeVersion: "test"}
		for run, wantCached := range []int{0, 1} {
			res, err := runner.Run(context.Background(), NewCampaignRegistry(), camp, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Done != 1 || res.Cached != wantCached {
				t.Fatalf("%s run %d: done=%d cached=%d, want done=1 cached=%d",
					tc.job.Kind, run, res.Done, res.Cached, wantCached)
			}
			if e := res.Results[0].Output.(cpusim.Result).TotalCacheEnergyJ; e <= 0 {
				t.Fatalf("%s run %d: total_cache_energy_j = %v", tc.job.Kind, run, e)
			}
		}
	}
}
