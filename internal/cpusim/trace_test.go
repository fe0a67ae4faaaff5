package cpusim

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
)

// TestPhaseSpans runs a traced DPCS simulation and checks the
// phase-granular span taxonomy: build, tracegen, warmup, measure and
// energy each appear once as children of the caller's span, and
// dpcs.transition instants appear when the policy transitions.
func TestPhaseSpans(t *testing.T) {
	var col tracez.Collector
	tr := tracez.New(&col)
	ctx, root := tr.Start(tracez.ContextWith(context.Background(), tr), "job")

	res, err := RunContext(ctx, ConfigA(), core.DPCS, smallWorkload(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	root.End()

	counts := make(map[string]int)
	var rootID string
	for _, sp := range col.Snapshot() {
		if sp.Name == "job" {
			rootID = sp.ID
		}
		counts[sp.Name]++
	}
	for _, phase := range []string{"sim.build", "sim.tracegen", "sim.warmup", "sim.measure", "sim.energy"} {
		if counts[phase] != 1 {
			t.Errorf("%s spans: %d, want 1", phase, counts[phase])
		}
	}
	for _, sp := range col.Snapshot() {
		if sp.Name != "job" && sp.Parent != rootID {
			t.Errorf("%s span parented to %q, want job span %q", sp.Name, sp.Parent, rootID)
		}
		if sp.Name == "dpcs.transition" && sp.Kind != tracez.KindInstant {
			t.Errorf("dpcs.transition recorded as %q, want instant", sp.Kind)
		}
	}
	// DPCS at minimum performs the initial cycle-0 transitions, which
	// land before the measurement marks: instants may therefore exceed
	// the measured-window transition count, but never be absent.
	if trans, _ := res.ResourceCounts(); trans == 0 {
		t.Fatal("DPCS run reported zero measured transitions")
	}
	if counts["dpcs.transition"] == 0 {
		t.Error("no dpcs.transition instants recorded")
	}
}

// TestTransitionSampling checks every policy transition is recorded as
// a dpcs.transition instant (there is no sampling stride) without
// touching the pass-through policy telemetry, and that tracing does not
// perturb the simulation itself.
func TestTransitionSampling(t *testing.T) {
	run := func(ctx context.Context, sink obs.PolicySink) Result {
		t.Helper()
		opts := fastOpts()
		opts.Sink = sink
		res, err := RunContext(ctx, ConfigA(), core.DPCS, smallWorkload(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	base := run(context.Background(), nil)

	var spans tracez.Collector
	var events obs.Collector
	tr := tracez.New(&spans)
	ctx, root := tr.Start(tracez.ContextWith(context.Background(), tr), "job")
	traced := run(ctx, &events)
	root.End()

	if traced.TotalCacheEnergyJ != base.TotalCacheEnergyJ || traced.Cycles != base.Cycles {
		t.Fatalf("tracing changed the simulation: %+v vs %+v", traced, base)
	}
	var transEvents, instants int
	for _, ev := range events.Events {
		if ev.Decision == obs.DecisionTransition {
			transEvents++
		}
	}
	for _, sp := range spans.Snapshot() {
		if sp.Name == "dpcs.transition" {
			instants++
		}
	}
	if transEvents == 0 {
		t.Fatal("pass-through sink saw no transition events")
	}
	if instants != transEvents {
		t.Errorf("recorded %d instants for %d transitions, want one each", instants, transEvents)
	}
}

// TestResourceCounts checks the ResourceCounter totals agree with the
// per-cache results.
func TestResourceCounts(t *testing.T) {
	res, err := Run(ConfigA(), core.DPCS, smallWorkload(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	trans, wbs := res.ResourceCounts()
	if want := res.L1I.Transitions + res.L1D.Transitions + res.L2.Transitions; trans != want {
		t.Errorf("transitions %d, want %d", trans, want)
	}
	if want := res.L1I.Stats.Writebacks + res.L1D.Stats.Writebacks + res.L2.Stats.Writebacks; wbs != want {
		t.Errorf("writebacks %d, want %d", wbs, want)
	}
	if wbs == 0 {
		t.Error("write-heavy workload produced zero writebacks")
	}
}
