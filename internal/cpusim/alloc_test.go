package cpusim

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestRunAllocBounds pins the heap cost of one whole simulation: the
// root BenchmarkSimulatorThroughput cell (Config A, baseline, hmmer.s,
// 300k measured instructions, seed 1), run at both trace-pipe shapes.
// At GOMAXPROCS=1 the pipe refills synchronously; above that it starts
// a producer goroutine with its own blocks and channel, which costs 8
// more allocations and ~33 KB per run. The bounds are host independent,
// so they replace any comparison against a benchmark snapshot taken on
// another machine.
//
// testing.AllocsPerRun cannot measure the second shape (it pins
// GOMAXPROCS to 1), so each run is measured from runtime.MemStats and
// the minimum over several runs is kept: runtime bookkeeping adds a few
// allocations to some runs but never removes any, while an allocation
// added to the simulation shows up in every run.
func TestRunAllocBounds(t *testing.T) {
	w, ok := trace.ByName("hmmer.s")
	if !ok {
		t.Fatal("hmmer.s missing")
	}
	opts := RunOptions{SimInstr: 300_000, Seed: 1}
	run := func() {
		if _, err := Run(ConfigA(), core.Baseline, w, opts); err != nil {
			t.Fatal(err)
		}
	}
	const bytesSlack = 0.10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		procs     int
		maxAllocs uint64
		bytes     uint64 // committed bytes per run
	}{
		{procs: 1, maxAllocs: 48, bytes: 704_176},
		{procs: 2, maxAllocs: 56, bytes: 737_520},
	} {
		runtime.GOMAXPROCS(tc.procs)
		run() // warm the memo layers
		allocs, bytes := ^uint64(0), ^uint64(0)
		for i := 0; i < 8; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			allocs = min(allocs, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("GOMAXPROCS=%d: %d allocs/run, %d B/run", tc.procs, allocs, bytes)
		if allocs > tc.maxAllocs {
			t.Errorf("GOMAXPROCS=%d: %d allocs/run, want <= %d", tc.procs, allocs, tc.maxAllocs)
		}
		if lo, hi := float64(tc.bytes)*(1-bytesSlack), float64(tc.bytes)*(1+bytesSlack); float64(bytes) < lo || float64(bytes) > hi {
			t.Errorf("GOMAXPROCS=%d: %d B/run, want %d ±%.0f%%", tc.procs, bytes, tc.bytes, bytesSlack*100)
		}
	}
}
