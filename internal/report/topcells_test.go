package report

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

func topcellsEvents() []obs.JobEvent {
	res := func(wall float64, bytes uint64, hit bool, trans int) *obs.JobResources {
		return &obs.JobResources{
			WallMS: wall, Allocs: bytes / 64, AllocBytes: bytes,
			CacheHit: hit, CacheMiss: !hit, Transitions: trans, Writebacks: uint64(trans) * 3,
		}
	}
	return []obs.JobEvent{
		{Type: obs.EventCampaignStarted, Index: -1, Campaign: "c"},
		{Type: obs.EventJobStarted, Index: 0, Kind: "cpusim"},
		{Type: obs.EventJobDone, Index: 1, Kind: "cpusim", Name: "fast", Resources: res(5, 1<<20, true, 2)},
		{Type: obs.EventJobDone, Index: 0, Kind: "cpusim", Name: "slow", Resources: res(50, 8<<20, false, 7)},
		{Type: obs.EventJobFailed, Index: 2, Kind: "analytical", Error: "boom", Resources: res(1, 1<<10, false, 0)},
		{Type: obs.EventCampaignFinished, Index: -1, State: "done"},
	}
}

func TestCellsFromEventsAndSort(t *testing.T) {
	cells := CellsFromEvents(topcellsEvents())
	if len(cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(cells))
	}
	// Index order from assembly.
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
	}
	if cells[2].Status != "failed" {
		t.Errorf("cell 2 status %q", cells[2].Status)
	}
	if err := SortCells(cells, "wall"); err != nil {
		t.Fatal(err)
	}
	if cells[0].Name != "slow" || cells[1].Name != "fast" {
		t.Fatalf("wall sort order: %q, %q", cells[0].Name, cells[1].Name)
	}
	if err := SortCells(cells, "allocs"); err != nil {
		t.Fatal(err)
	}
	if cells[0].Name != "slow" {
		t.Fatalf("allocs sort put %q first", cells[0].Name)
	}
	for _, key := range []string{"nope", "cpu"} {
		if err := SortCells(cells, key); err == nil {
			t.Fatalf("sort key %q accepted", key)
		}
	}
}

func TestAttachEnergyAndTables(t *testing.T) {
	cells := CellsFromEvents(topcellsEvents())
	results := strings.Join([]string{
		`{"index":0,"status":"done","output":{"total_cache_energy_j":0.004}}`,
		`{"index":1,"status":"done","output":{"total_cache_energy_j":0.001}}`,
		`{"index":2,"status":"failed"}`,
	}, "\n")
	if err := AttachEnergy(cells, strings.NewReader(results)); err != nil {
		t.Fatal(err)
	}
	if cells[0].EnergyJ != 0.004 || cells[1].EnergyJ != 0.001 || cells[2].EnergyJ != 0 {
		t.Fatalf("energies %v %v %v", cells[0].EnergyJ, cells[1].EnergyJ, cells[2].EnergyJ)
	}
	if err := SortCells(cells, "energy"); err != nil {
		t.Fatal(err)
	}
	if cells[0].Name != "slow" {
		t.Fatalf("energy sort put %q first", cells[0].Name)
	}

	var out strings.Builder
	if err := TopCellsTable(cells, 2).Render(&out); err != nil {
		t.Fatal(err)
	}
	table := out.String()
	for _, want := range []string{"slow", "fast", "hit", "miss"} {
		if !strings.Contains(table, want) {
			t.Errorf("top table missing %q:\n%s", want, table)
		}
	}
	if strings.Contains(table, "analytical") {
		t.Errorf("top-2 table includes third cell:\n%s", table)
	}
	if strings.Contains(table, "cpu ms") {
		t.Errorf("top table prints a CPU column:\n%s", table)
	}

	out.Reset()
	if err := KindSummaryTable(cells).Render(&out); err != nil {
		t.Fatal(err)
	}
	summary := out.String()
	if !strings.Contains(summary, "cpusim") || !strings.Contains(summary, "analytical") {
		t.Errorf("kind summary missing kinds:\n%s", summary)
	}
	// cpusim has the larger wall total, so it leads.
	if strings.Index(summary, "cpusim") > strings.Index(summary, "analytical") {
		t.Errorf("kind summary not wall-ordered:\n%s", summary)
	}
	if strings.Contains(summary, "cpu ms") {
		t.Errorf("kind summary prints a CPU column:\n%s", summary)
	}
}

// TestCellsWithoutResources covers timelines from runs that predate
// attribution: DurationMS still populates wall time.
func TestCellsWithoutResources(t *testing.T) {
	cells := CellsFromEvents([]obs.JobEvent{
		{Type: obs.EventJobDone, Index: 0, Kind: "old", DurationMS: 12.5},
	})
	if len(cells) != 1 || cells[0].WallMS != 12.5 {
		t.Fatalf("cells %+v", cells)
	}
}
