package multicore

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
)

// runScalar is the reference oracle for the sharded feeds: the
// pre-pipe interleave, one generator call and one step per core per
// sweep, under the same warm-up and measurement as run.
func (sys *System) runScalar(ctx context.Context, warmupPerCore, instrPerCore uint64) (Result, error) {
	var ins trace.Instr
	return sys.measure(ctx, warmupPerCore, instrPerCore, func(n uint64) error {
		for k := uint64(0); k < n; k++ {
			if k&ctxCheckMask == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			for _, c := range sys.cores {
				c.gen.Next(&ins)
				sys.step(c, &ins)
			}
		}
		return nil
	})
}

// runWith builds a fresh multi-core System and drives it through either
// the sharded per-core block feeds or the scalar reference oracle.
func runWith(t *testing.T, cfg Config, mode core.Mode, w trace.Workload, warm, instr, seed uint64, scalar bool) Result {
	t.Helper()
	sys, err := newSystem(cfg, mode, w, seed)
	if err != nil {
		t.Fatal(err)
	}
	run := sys.run
	if scalar {
		run = sys.runScalar
	}
	res, err := run(context.Background(), warm, instr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardedMatchesSerial is the multi-core half of the tentpole's
// safety harness: the sharded generation path (per-core producer
// goroutines over reused block arenas) must be observationally
// identical to the serial reference interleave — same per-core cycles
// and stats, same coherence invalidations, same L2 behaviour and
// energies — across all three modes and randomized window lengths.
func TestShardedMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("differential run is slow")
	}
	rng := stats.NewRNG(0x5a4d ^ 0x1234)
	suite := trace.Suite()
	// Alternate GOMAXPROCS so both pipe shapes (synchronous refill and
	// producer goroutines) are exercised on any host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for i, mode := range []core.Mode{core.Baseline, core.SPCS, core.DPCS} {
		runtime.GOMAXPROCS(1 + i%2)
		w := suite[rng.Intn(len(suite))]
		cfg := DefaultConfig()
		cfg.Cores = 2 + rng.Intn(3)
		// Odd lengths land the warm-up/measure boundary mid-block.
		warm := 20_000 + uint64(rng.Intn(3_000))
		instr := 60_000 + uint64(rng.Intn(10_000))
		seed := uint64(rng.Intn(1 << 20))
		sharded := runWith(t, cfg, mode, w, warm, instr, seed, false)
		serial := runWith(t, cfg, mode, w, warm, instr, seed, true)
		if !reflect.DeepEqual(sharded, serial) {
			t.Fatalf("case %d (%s/%v cores=%d seed=%d): sharded run diverges from serial\nsharded: %+v\nserial:  %+v",
				i, w.Name, mode, cfg.Cores, seed, sharded, serial)
		}
	}
}

// countingGen wraps a generator, counting instructions and firing a
// cancel mid-block; see the cpusim counterpart.
type countingGen struct {
	inner  trace.Generator
	at     uint64
	count  uint64
	cancel context.CancelFunc
}

func (g *countingGen) Name() string { return g.inner.Name() }

func (g *countingGen) Next(ins *trace.Instr) {
	g.count++
	if g.count == g.at {
		g.cancel()
	}
	g.inner.Next(ins)
}

// TestCancelBoundedBySweepAndBlock pins the sharded loop's cancellation
// granularity: after a cancel fires, every core generates at most its
// pipe's two arena blocks plus the in-flight sweep before the loop
// observes ctx at the next poll.
func TestCancelBoundedBySweepAndBlock(t *testing.T) {
	// Force the threaded pipe shape so the producer run-ahead bound is
	// what's actually under test, even on a single-CPU host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	w, ok := trace.ByName("bzip2.s")
	if !ok {
		t.Fatal("bzip2.s missing from suite")
	}
	cfg := DefaultConfig()
	cfg.Cores = 3
	sys, err := newSystem(cfg, core.DPCS, w, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Wrap every core's generator; the middle core fires the cancel a
	// third of the way into one of its blocks, past warm-up.
	gens := make([]*countingGen, len(sys.cores))
	for i, c := range sys.cores {
		g := &countingGen{inner: c.gen}
		if i == 1 {
			g.at = 30_000 + trace.BlockSize/3
			g.cancel = cancel
		} else {
			g.at = ^uint64(0) // never fires
		}
		gens[i] = g
		c.gen = g
	}
	_, err = sys.run(ctx, 20_000, 1_000_000_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The cancel is observed within one poll window of the interleave
	// (ctxCheckMask+1 sweeps); beyond that each producer can only run
	// its two arena blocks ahead.
	const slack = 2*trace.BlockSize + (ctxCheckMask + 1)
	for i, g := range gens {
		if g.count > gens[1].at+slack {
			t.Fatalf("core %d generated %d instructions, want <= %d (cancel at %d + slack %d)",
				i, g.count, gens[1].at+slack, gens[1].at, slack)
		}
	}
}
