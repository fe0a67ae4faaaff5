package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/obs"
)

// CellUsage is one job's resource attribution, assembled from the
// campaign timeline (and optionally results.jsonl for energy): the
// row type behind `pcs top`.
type CellUsage struct {
	Index  int
	Kind   string
	Name   string
	Status string // done / failed / cancelled
	WallMS float64
	Allocs uint64
	// AllocBytes is the job's heap allocation volume.
	AllocBytes uint64
	// CacheHit/CacheMiss attribute the resultstore probe.
	CacheHit  bool
	CacheMiss bool
	// Transitions/Writebacks are the simulator-side counts.
	Transitions int
	Writebacks  uint64
	// EnergyJ is the cell's simulated total cache energy, parsed from
	// results.jsonl when the output reports total_cache_energy_j.
	EnergyJ float64
}

// eventStatus maps terminal timeline event types to a status word.
var eventStatus = map[obs.JobEventType]string{
	obs.EventJobDone:      "done",
	obs.EventJobFailed:    "failed",
	obs.EventJobCancelled: "cancelled",
}

// CellsFromEvents assembles per-cell usage from a campaign timeline,
// one row per terminal job event, in job-index order. Events without a
// resources block (older runs) still contribute wall time from
// DurationMS.
func CellsFromEvents(events []obs.JobEvent) []CellUsage {
	var cells []CellUsage
	for _, ev := range events {
		status, ok := eventStatus[ev.Type]
		if !ok {
			continue
		}
		c := CellUsage{
			Index:  ev.Index,
			Kind:   ev.Kind,
			Name:   ev.Name,
			Status: status,
			WallMS: ev.DurationMS,
		}
		if r := ev.Resources; r != nil {
			c.WallMS = r.WallMS
			c.Allocs = r.Allocs
			c.AllocBytes = r.AllocBytes
			c.CacheHit = r.CacheHit
			c.CacheMiss = r.CacheMiss
			c.Transitions = r.Transitions
			c.Writebacks = r.Writebacks
		}
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Index < cells[j].Index })
	return cells
}

// AttachEnergy joins each cell with its result record's
// output.total_cache_energy_j, read generically from a results.jsonl
// stream so it works for every simulator kind that reports the field.
// Records without it (analytical kinds) leave EnergyJ zero.
func AttachEnergy(cells []CellUsage, r io.Reader) error {
	byIndex := make(map[int]*CellUsage, len(cells))
	for i := range cells {
		byIndex[cells[i].Index] = &cells[i]
	}
	dec := json.NewDecoder(r)
	for n := 0; ; n++ {
		var rec struct {
			Index  int `json:"index"`
			Output struct {
				TotalCacheEnergyJ float64 `json:"total_cache_energy_j"`
			} `json:"output"`
		}
		if err := dec.Decode(&rec); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("report: results record %d: %w", n, err)
		}
		if c, ok := byIndex[rec.Index]; ok {
			c.EnergyJ = rec.Output.TotalCacheEnergyJ
		}
	}
}

// AttachEnergyFile is AttachEnergy over a results.jsonl path; a missing
// file is not an error (the campaign may predate artifacts or still be
// running).
func AttachEnergyFile(cells []CellUsage, path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("report: %w", err)
	}
	defer f.Close()
	return AttachEnergy(cells, f)
}

// SortCells orders cells by the named key, descending: "wall",
// "allocs", or "energy".
func SortCells(cells []CellUsage, key string) error {
	var less func(a, b CellUsage) bool
	switch key {
	case "wall":
		less = func(a, b CellUsage) bool { return a.WallMS > b.WallMS }
	case "allocs":
		less = func(a, b CellUsage) bool { return a.AllocBytes > b.AllocBytes }
	case "energy":
		less = func(a, b CellUsage) bool { return a.EnergyJ > b.EnergyJ }
	default:
		return fmt.Errorf("report: unknown sort key %q (wall, allocs, energy)", key)
	}
	sort.SliceStable(cells, func(i, j int) bool { return less(cells[i], cells[j]) })
	return nil
}

// cacheMark renders the cell's resultstore provenance.
func cacheMark(c CellUsage) string {
	switch {
	case c.CacheHit:
		return "hit"
	case c.CacheMiss:
		return "miss"
	default:
		return "-"
	}
}

// TopCellsTable renders the first n cells (all if n <= 0) of an
// already-sorted usage list.
func TopCellsTable(cells []CellUsage, n int) *Table {
	if n > 0 && n < len(cells) {
		cells = cells[:n]
	}
	t := NewTable("Top cells by resource usage",
		"cell", "kind", "status", "wall ms", "alloc MB", "cache", "transitions", "writebacks", "energy mJ")
	for _, c := range cells {
		t.AddRow(obs.CellLabel(c.Kind, c.Name, c.Index), c.Kind, c.Status, c.WallMS,
			float64(c.AllocBytes)/(1<<20), cacheMark(c), c.Transitions, c.Writebacks, c.EnergyJ*1e3)
	}
	return t
}

// KindSummaryTable aggregates usage per kind: where the campaign's
// compute went, at one row per job kind.
func KindSummaryTable(cells []CellUsage) *Table {
	type agg struct {
		kind         string
		jobs         int
		wall         float64
		allocBytes   uint64
		hits, misses int
		energyJ      float64
	}
	byKind := make(map[string]*agg)
	var order []string
	for _, c := range cells {
		a := byKind[c.Kind]
		if a == nil {
			a = &agg{kind: c.Kind}
			byKind[c.Kind] = a
			order = append(order, c.Kind)
		}
		a.jobs++
		a.wall += c.WallMS
		a.allocBytes += c.AllocBytes
		if c.CacheHit {
			a.hits++
		}
		if c.CacheMiss {
			a.misses++
		}
		a.energyJ += c.EnergyJ
	}
	sort.Slice(order, func(i, j int) bool {
		return byKind[order[i]].wall > byKind[order[j]].wall
	})
	t := NewTable("Per-kind totals",
		"kind", "jobs", "wall ms", "alloc MB", "hits", "misses", "energy mJ")
	for _, k := range order {
		a := byKind[k]
		t.AddRow(a.kind, a.jobs, a.wall, float64(a.allocBytes)/(1<<20),
			a.hits, a.misses, a.energyJ*1e3)
	}
	return t
}
