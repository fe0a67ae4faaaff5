package expers

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/cpusim"
	"repro/internal/runner"
)

// arenaDiffCampaign builds a campaign exercising every registered kind,
// with enough duplicate jobs per kind that a worker's second and third
// cell of each kind run against a warm arena. The fig4-cell block mixes
// pinned-seed duplicates (which hit the arena's pristine fault-map
// snapshot) with derived-seed cells (which force a repopulation).
func arenaDiffCampaign(t *testing.T, seed uint64) runner.Campaign {
	t.Helper()
	var jobs []runner.Spec
	add := func(kind string, params any) {
		raw, err := json.Marshal(params)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, runner.Spec{Kind: kind, Params: raw})
	}
	for i := 0; i < 3; i++ {
		add("cpusim", CPUSimParams{Bench: "hmmer.s", SimInstr: 20_000})
		add("minvdd", MinVDDParams{SizeBytes: 64 << 10, Ways: 4, BlockBytes: 64})
		add("vddlevels", VDDLevelsParams{Levels: 3})
		add("cells", CellsParams{})
		add("leakage", LeakageParams{SimInstr: 50_000})
	}
	for i := 0; i < 2; i++ {
		add("multicore", MulticoreParams{Bench: "gobmk.s", Cores: 2, InstrPerCore: 10_000})
		add("ablation", AblationParams{Benches: []string{"hmmer.s"}, SimInstr: 30_000})
		// Pinned seed: consecutive cells redraw identical fault maps.
		add("fig4-cell", Fig4CellParams{
			Config: cpusim.ConfigA(), Mode: "DPCS", Bench: "hmmer.s",
			SimInstr: 20_000, Seed: seed | 1,
		})
		// Derived seed (Seed == 0): every cell repopulates its maps.
		add("fig4-cell", Fig4CellParams{
			Config: cpusim.ConfigA(), Mode: "SPCS", Bench: "hmmer.s",
			SimInstr: 20_000,
		})
	}
	return runner.Campaign{Name: "arena-diff", Seed: seed, Jobs: jobs}
}

// marshalResults reduces a campaign result to the deterministic JSON
// the artifact store would write, which is exactly the byte-identity
// surface the arena work must preserve.
func marshalResults(t *testing.T, res *runner.CampaignResult) []string {
	t.Helper()
	lines := make([]string, 0, len(res.Results))
	for _, r := range res.Results {
		if r.Status != runner.StatusDone {
			t.Fatalf("job %d (%s) not done: %s %s", r.Index, r.Kind, r.Status, r.Error)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	return lines
}

// TestArenaDifferential pins the tentpole invariant: for every
// registered kind, a warm run (per-worker arenas reused across cells)
// produces results byte-identical to a cold run (NoWorkerState, every
// cell allocating from scratch), at every worker count. The campaign
// seed is randomized so each CI run probes a different fault-map draw;
// the seed is logged for replay.
func TestArenaDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-configuration campaign diff is not short")
	}
	seed := rand.Uint64()
	t.Logf("campaign seed %#x", seed)
	reg := NewCampaignRegistry()
	c := arenaDiffCampaign(t, seed)

	ref, err := runner.Run(context.Background(), reg, c,
		runner.Options{Workers: 1, NoWorkerState: true})
	if err != nil {
		t.Fatal(err)
	}
	want := marshalResults(t, ref)

	for _, workers := range []int{1, 2, 8} {
		for _, cold := range []bool{false, true} {
			if workers == 1 && cold {
				continue // the reference itself
			}
			res, err := runner.Run(context.Background(), reg, c,
				runner.Options{Workers: workers, NoWorkerState: cold})
			if err != nil {
				t.Fatal(err)
			}
			got := marshalResults(t, res)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("workers=%d cold=%v: job %d diverged\n got: %s\nwant: %s",
						workers, cold, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAnalyticalSteadyStateAllocs pins the memo layer's steady state:
// once warm, every analytical figure entry point must cost at most 10
// allocations per call (the residue is interface boxing on the memo
// lookup). The pre-memo code cost 522-1441 allocs per call.
func TestAnalyticalSteadyStateAllocs(t *testing.T) {
	org := L1ConfigA()
	funcs := map[string]func() error{
		"Fig2":           func() error { _, _ = Fig2(); return nil },
		"Fig3aGapAt99":   func() error { _, err := Fig3aGapAt99(org, 2); return err },
		"Fig3aMechs":     func() error { _, _, err := Fig3aMechs(org, 2, nil); return err },
		"Fig3bMechs":     func() error { _, _, err := Fig3bMechs(org, nil); return err },
		"Fig3c":          func() error { _, _, err := Fig3c(org); return err },
		"Fig3dMechs":     func() error { _, _, err := Fig3dMechs(org, nil); return err },
		"MinVDDMechs":    func() error { _, _, err := MinVDDMechs(org, nil); return err },
		"AreaOverheads":  func() error { _, _, err := AreaOverheads(); return err },
		"VDDPlans":       func() error { _, _, err := VDDPlans(); return err },
		"CellComparison": func() error { _, _, err := CellComparison(); return err },
	}
	for name, fn := range funcs {
		if err := fn(); err != nil { // warm the memo entry
			t.Fatalf("%s: %v", name, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := fn(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		})
		if allocs > 10 {
			t.Errorf("%s: %.0f allocs/op steady-state, want <= 10", name, allocs)
		}
	}
}
