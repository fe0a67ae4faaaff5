package expers

import (
	"fmt"
	"sync/atomic"

	"repro/internal/cacti"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faultmodel"
	"repro/internal/memo"
	"repro/internal/report"
	"repro/internal/sram"
)

// This file is the analytical memo layer (DESIGN.md §13): every figure
// and table function below is a thin wrapper that computes its result
// once per process and serves the shared, immutable value on every
// later call. The compute bodies live next to their figure docs in
// analytical.go / cells.go. Keys are value structs fully determining
// the output (the BER model, technology and CACTI parameters are fixed
// package-wide), so a memoized result is byte-identical to a fresh
// computation; callers must treat returned slices, setups and tables
// as read-only, which every caller in this repository already does
// (they render, index or copy — never append or AddRow).

// memos is the swappable process-wide table. Cold-path benchmarks and
// differential tests call ResetMemos to measure/verify the first
// computation; everything else only ever reads.
var memos atomic.Pointer[memo.Table]

func init() { memos.Store(memo.NewTable()) }

// ResetMemos drops every memoized analytical result, so the next call
// of each function recomputes from scratch. In-flight readers keep the
// old table; concurrent use is safe.
func ResetMemos() { memos.Store(memo.NewTable()) }

type (
	setupKey struct {
		org     cacti.Org
		nLevels int
	}
	faultModelKey struct{ geom faultmodel.Geometry }
	levelPlanKey  struct{ org cacti.Org }
	fig2Key       struct{}
	fig3cKey      struct{ org cacti.Org }
	areaKey       struct{ digest string }
	vddPlansKey   struct{}
	cellsKey      struct{ digest string }
)

// orgsDigest canonically identifies a list of cache organisations, so
// memo entries hit on equal setups however the values were constructed
// (never on pointer or slice identity).
func orgsDigest(orgs []cacti.Org) string {
	s := ""
	for _, org := range orgs {
		s += fmt.Sprintf("%s/%dB/%dw/%dB/a%d/serial=%t;",
			org.Name, org.SizeBytes, org.Assoc, org.BlockBytes, org.AddrBits, org.SerialTagData)
	}
	return s
}

// geomDigest canonically identifies a fault-model geometry.
func geomDigest(g faultmodel.Geometry) string {
	return fmt.Sprintf("%ds/%dw/%db", g.Sets, g.Ways, g.BlockBits)
}

// rowsAndTable pairs a figure's data rows with its rendered table so
// one memo entry serves both return values.
type rowsAndTable[R any] struct {
	rows R
	t    *report.Table
}

// NewCacheSetup builds (or serves the memoized) model stack for an
// organisation, using nLevels allowed VDD levels for fault-map sizing
// (3 in the paper). The returned setup is shared: treat it and its
// models as immutable.
func NewCacheSetup(org cacti.Org, nLevels int) (*CacheSetup, error) {
	return memo.Get(memos.Load(), setupKey{org: org, nLevels: nLevels}, func() (*CacheSetup, error) {
		return newCacheSetup(org, nLevels)
	})
}

// faultModelFor memoizes the bare fault model for a geometry under the
// package-standard BER model (the minvdd kind's working set).
func faultModelFor(geom faultmodel.Geometry) (*faultmodel.Model, error) {
	return memo.Get(memos.Load(), faultModelKey{geom: geom}, func() (*faultmodel.Model, error) {
		return faultmodel.New(geom, sram.NewWangCalhounBER())
	})
}

// levelPlanFor memoizes the paper's three-voltage plan for an
// organisation (the leakage kind's design-time derivation).
func levelPlanFor(org cacti.Org) (core.LevelPlan, error) {
	return memo.Get(memos.Load(), levelPlanKey{org: org}, func() (core.LevelPlan, error) {
		fm, err := faultModelFor(faultmodel.Geometry{
			Sets: org.Sets(), Ways: org.Assoc, BlockBits: org.BlockBits()})
		if err != nil {
			return core.LevelPlan{}, err
		}
		tech := device.Tech45SOI()
		return core.SelectLevels(fm, tech.VDDNom, tech.VDDMin,
			faultmodel.VDD1CapacityFloor(org.Assoc))
	})
}

// Fig2 regenerates the paper's Fig. 2: BER versus VDD at 10 mV steps.
func Fig2() ([]Fig2Point, *report.Table) {
	v, _ := memo.Get(memos.Load(), fig2Key{}, func() (rowsAndTable[[]Fig2Point], error) {
		pts, t := fig2()
		return rowsAndTable[[]Fig2Point]{rows: pts, t: t}, nil
	})
	return v.rows, v.t
}

// Fig3c regenerates the leakage breakdown of Fig. 3 for the proposed
// mechanism (faulty blocks gated as capacity shrinks).
func Fig3c(org cacti.Org) ([]Fig3cRow, *report.Table, error) {
	v, err := memo.Get(memos.Load(), fig3cKey{org: org}, func() (rowsAndTable[[]Fig3cRow], error) {
		rows, t, err := fig3c(org)
		return rowsAndTable[[]Fig3cRow]{rows: rows, t: t}, err
	})
	return v.rows, v.t, err
}

// allOrgsDigest is precomputed so the hot AreaOverheads() wrapper skips
// re-digesting the fixed Table-2 organisation list on every call (the
// steady-state alloc budget is 10 per entry point).
var allOrgsDigest = orgsDigest(AllOrgs())

// AreaOverheads regenerates the Sec. 4.2 area-overhead estimates for all
// four cache organisations (paper: 2–5 % total, fault map ≤ 4 %,
// gates < 1 %).
func AreaOverheads() ([]AreaRow, *report.Table, error) {
	return areaOverheadsKeyed(allOrgsDigest, AllOrgs)
}

// AreaOverheadsFor computes the Sec. 4.2 area-overhead estimates for an
// arbitrary organisation list, memoized by the list's canonical digest:
// two distinctly-constructed but equal inputs share one entry.
func AreaOverheadsFor(orgs []cacti.Org) ([]AreaRow, *report.Table, error) {
	return areaOverheadsKeyed(orgsDigest(orgs), func() []cacti.Org { return orgs })
}

func areaOverheadsKeyed(digest string, orgs func() []cacti.Org) ([]AreaRow, *report.Table, error) {
	v, err := memo.Get(memos.Load(), areaKey{digest: digest}, func() (rowsAndTable[[]AreaRow], error) {
		rows, t, err := areaOverheads(orgs())
		return rowsAndTable[[]AreaRow]{rows: rows, t: t}, err
	})
	return v.rows, v.t, err
}

// VDDPlans computes the three-level voltage plan for all organisations
// (the reproduction of Table 2's voltage rows via the paper's 99 % rule).
func VDDPlans() ([]VDDPlanRow, *report.Table, error) {
	v, err := memo.Get(memos.Load(), vddPlansKey{}, func() (rowsAndTable[[]VDDPlanRow], error) {
		rows, t, err := vddPlans()
		return rowsAndTable[[]VDDPlanRow]{rows: rows, t: t}, err
	})
	return v.rows, v.t, err
}

// CellComparison evaluates 6T, 8T and 10T cells with and without the PCS
// mechanism on the Config-A L1 geometry.
func CellComparison() ([]CellRow, *report.Table, error) {
	return CellComparisonFor(CellGeometry())
}

// CellComparisonFor evaluates the bit-cell designs on an arbitrary
// geometry, memoized by the geometry's canonical digest.
func CellComparisonFor(geom faultmodel.Geometry) ([]CellRow, *report.Table, error) {
	v, err := memo.Get(memos.Load(), cellsKey{digest: geomDigest(geom)}, func() (rowsAndTable[[]CellRow], error) {
		rows, t, err := cellComparison(geom)
		return rowsAndTable[[]CellRow]{rows: rows, t: t}, err
	})
	return v.rows, v.t, err
}
