package expers

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"runtime/pprof"
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
// the unit-test suite fast; the full run is `pcs sim` and the root
// benchmarks.
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
	d := runFig4Grid(t, cfg, trace.Suite(), opts, 0)
	if len(d.Rows) != 16 {
		t.Fatalf("%d rows", len(d.Rows))
	}
	for _, r := range d.Rows {
		if r.Baseline.TotalCacheEnergyJ <= 0 {
			t.Errorf("%s zero baseline energy", r.Workload)
		}
	}
}

// runFig4Grid runs one configuration's grid as `pcs sim` does — the
// Fig4CellJobs campaign through the runner, assembled by AssembleFig4.
func runFig4Grid(t *testing.T, cfg cpusim.SystemConfig, workloads []trace.Workload, opts cpusim.RunOptions, workers int) Fig4Data {
	t.Helper()
	jobs, err := Fig4CellJobs(cfg, workloads, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(context.Background(), NewCampaignRegistry(),
		runner.Campaign{Name: "fig4", Seed: opts.Seed, Jobs: jobs}, runner.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	grids, err := AssembleFig4(res.Results)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if len(grids) != 1 {
		t.Fatalf("workers=%d: %d configs assembled, want 1", workers, len(grids))
	}
	return grids[0]
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
		parallel := runFig4Grid(t, cfg, workloads, opts, workers)
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

// profileSink takes a goroutine profile at every policy event until
// one shows the trace-pipe producer, i.e. while the cell's pipe is open.
type profileSink struct {
	profile string
}

func (s *profileSink) Record(obs.PolicyEvent) {
	if strings.Contains(s.profile, pipeProducer) {
		return
	}
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err == nil {
		s.profile = buf.String()
	}
}

// pipeProducer is the function of the trace-pipe producer goroutine.
const pipeProducer = "trace.StartPipeArena.func1"

// TestPipeProducerCarriesCellLabels checks the goroutine a fig4-cell
// starts to generate its trace inherits the runner's pprof labels, so a
// CPU profile attributes generation time to the cell and its kind.
func TestPipeProducerCarriesCellLabels(t *testing.T) {
	// The pipe runs its producer on a goroutine only when there is more
	// than one P to schedule it on.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	w, _ := trace.ByName("bzip2.s")
	jobs, err := Fig4CellJobs(cpusim.ConfigA(), []trace.Workload{w},
		cpusim.RunOptions{WarmupInstr: 10_000, SimInstr: 100_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dpcs := jobs[2]
	sink := &profileSink{}
	res, err := runner.Run(context.Background(), NewCampaignRegistry(),
		runner.Campaign{Name: "labels", Seed: 3, Jobs: []runner.Spec{dpcs}},
		runner.Options{Workers: 1, JobContext: func(ctx context.Context, _ int, _ runner.Spec) context.Context {
			return obs.ContextWithPolicySink(ctx, sink)
		}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != 1 {
		t.Fatalf("cell did not finish: %+v", res.Results[0])
	}
	var stack string
	for _, g := range strings.Split(sink.profile, "\n\n") {
		if strings.Contains(g, pipeProducer) {
			stack = g
			break
		}
	}
	if stack == "" {
		t.Fatalf("no goroutine profile taken while the pipe was open:\n%s", sink.profile)
	}
	for _, want := range []string{`"kind":"fig4-cell"`, `"cell":"` + dpcs.Name + `"`} {
		if !strings.Contains(stack, want) {
			t.Errorf("pipe producer lacks label %s:\n%s", want, stack)
		}
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

// TestAssembleFig4 checks the assembler splits a two-config grid into
// one Fig4Data per config, row by row, and rejects cells out of grid
// order.
func TestAssembleFig4(t *testing.T) {
	var results []runner.JobResult
	for _, cfg := range []string{"A", "B"} {
		for _, w := range []string{"mcf.s", "hmmer.s"} {
			for _, m := range fig4Modes {
				results = append(results, runner.JobResult{Index: len(results), Status: runner.StatusDone,
					Output: cpusim.Result{Config: cfg, Workload: w, Mode: m}})
			}
		}
	}
	grids, err := AssembleFig4(results)
	if err != nil {
		t.Fatal(err)
	}
	if len(grids) != 2 || grids[0].Config != "A" || grids[1].Config != "B" {
		t.Fatalf("assembled %d grids: %+v", len(grids), grids)
	}
	for _, g := range grids {
		if len(g.Rows) != 2 || g.Rows[1].Workload != "hmmer.s" || g.Rows[1].DPCS.Mode != core.DPCS {
			t.Fatalf("config %s rows: %+v", g.Config, g.Rows)
		}
	}
	results[4], results[5] = results[5], results[4]
	if _, err := AssembleFig4(results); err == nil || !strings.Contains(err.Error(), "out of grid order") {
		t.Fatalf("swapped cells: error %v", err)
	}
	if _, err := AssembleFig4(results[:5]); err == nil {
		t.Fatal("accepted a partial row")
	}
}
