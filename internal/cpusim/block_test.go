package cpusim

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ctxCheckMask throttles cancellation polling in the scalar reference
// loop: ctx.Err() is checked once every 8192 instructions.
const ctxCheckMask = 8192 - 1

// runScalar is the reference oracle for the block pipeline: the
// pre-block inner loop, one generator call and one step per
// instruction, under the same warm-up and measurement as run.
func (s *System) runScalar(ctx context.Context, gen trace.Generator, opts RunOptions) (Result, error) {
	var ins trace.Instr
	return s.measure(ctx, gen.Name(), opts, func(n uint64) error {
		for i := uint64(0); i < n; i++ {
			if i&ctxCheckMask == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			gen.Next(&ins)
			s.step(&ins)
		}
		return nil
	})
}

// runWith builds a fresh System for (cfg, mode, seed) and drives it with
// its own generator through either the block pipeline or the scalar
// reference oracle.
func runWith(t *testing.T, cfg SystemConfig, mode core.Mode, w trace.Workload, opts RunOptions, scalar bool) Result {
	t.Helper()
	sys, err := NewSystem(cfg, mode, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.New(w, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	run := sys.run
	if scalar {
		run = sys.runScalar
	}
	res, err := run(context.Background(), gen, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBlockLoopMatchesScalar is the tentpole's safety harness: for
// randomized workloads, seeds and window lengths (deliberately not
// multiples of the block size) across all three modes, the block
// pipeline and the per-instruction reference oracle must produce
// identical Results — same cycles, stats, energies, transitions.
func TestBlockLoopMatchesScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("differential run is slow")
	}
	rng := stats.NewRNG(0xb10c)
	suite := trace.Suite()
	// Alternate GOMAXPROCS between 1 and 2 so both pipe shapes — the
	// single-CPU synchronous refill and the producer goroutine — are
	// exercised regardless of the host's CPU count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for i := 0; i < 6; i++ {
		runtime.GOMAXPROCS(1 + i%2)
		w := suite[rng.Intn(len(suite))]
		mode := []core.Mode{core.Baseline, core.SPCS, core.DPCS}[i%3]
		opts := RunOptions{
			// Odd lengths exercise the partial final block.
			WarmupInstr: 40_000 + uint64(rng.Intn(5_000)),
			SimInstr:    300_000 + uint64(rng.Intn(50_000)),
			Seed:        uint64(rng.Intn(1 << 20)),
		}
		blk := runWith(t, ConfigA(), mode, w, opts, false)
		ref := runWith(t, ConfigA(), mode, w, opts, true)
		if !reflect.DeepEqual(blk, ref) {
			t.Fatalf("case %d (%s/%v seed=%d warm=%d sim=%d): block pipeline diverges from scalar\nblock:  %+v\nscalar: %+v",
				i, w.Name, mode, opts.Seed, opts.WarmupInstr, opts.SimInstr, blk, ref)
		}
	}
}

// TestBlockLoopZeroAllocs pins the steady-state allocation contract of
// the batched inner loop: simulating one block heap-allocates nothing.
// The workload's single phase is long enough that no phase re-entry
// (which builds a new Zipf table by design) lands inside the window.
func TestBlockLoopZeroAllocs(t *testing.T) {
	w := trace.Workload{
		Name:      "alloc-gate",
		CodeBytes: 16 << 10,
		JumpProb:  0.02,
		ZipfS:     1.0,
		Phases: []trace.Phase{{
			Instructions:    1 << 40,
			WorkingSetBytes: 1 << 20,
			Mix:             trace.PatternMix{Seq: 0.3, Stride: 0.2, Zipf: 0.3, Chase: 0.1},
			WriteFrac:       0.3,
			MemFrac:         0.4,
		}},
	}
	sys, err := NewSystem(ConfigA(), core.DPCS, 1)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.New(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := trace.StartPipe(trace.AsBlock(gen))
	defer p.Close()
	ctx := context.Background()
	// Warm up: fill caches, arm policies, let DPCS settle.
	if err := sys.simulate(ctx, p, 200_000); err != nil {
		t.Fatal(err)
	}
	sys.armPolicies()
	avg := testing.AllocsPerRun(200, func() {
		if err := sys.simulate(ctx, p, trace.BlockSize); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("block loop allocates %v allocs/block, want 0", avg)
	}
}
