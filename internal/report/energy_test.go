// External test: it runs a real fig4-cell campaign, which needs
// internal/expers (an importer of this package).
package report_test

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/cpusim"
	"repro/internal/expers"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/trace"
)

// TestAttachEnergyFig4Cell joins per-cell energy from the results.jsonl
// a fig4-cell campaign writes: every cell must report its simulated
// total cache energy, not zero.
func TestAttachEnergyFig4Cell(t *testing.T) {
	w, _ := trace.ByName("hmmer.s")
	jobs, err := expers.Fig4CellJobs(cpusim.ConfigA(), []trace.Workload{w},
		cpusim.RunOptions{WarmupInstr: 5_000, SimInstr: 20_000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	res, err := runner.Run(context.Background(), expers.NewCampaignRegistry(),
		runner.Campaign{Name: "fig4-A", Seed: 2, Jobs: jobs}, runner.Options{Workers: 1, ArtifactDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJobTimeline(filepath.Join(dir, "timeline.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	cells := report.CellsFromEvents(events)
	if len(cells) != len(jobs) {
		t.Fatalf("%d cells from the timeline, want %d", len(cells), len(jobs))
	}
	if err := report.AttachEnergyFile(cells, filepath.Join(dir, "results.jsonl")); err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		want := res.Results[c.Index].Output.(cpusim.Result).TotalCacheEnergyJ
		if c.EnergyJ <= 0 || c.EnergyJ != want {
			t.Errorf("cell %d (%s): energy %v J, want %v J", c.Index, c.Name, c.EnergyJ, want)
		}
	}
}
