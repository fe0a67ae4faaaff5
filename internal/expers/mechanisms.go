package expers

import (
	"fmt"
	"strings"

	"repro/internal/cacti"
	"repro/internal/faultmodel"
	"repro/internal/mechanism"
	"repro/internal/memo"
	"repro/internal/report"
)

// This file is the registry-driven side of the Fig. 3 comparisons:
// every mechanism registered in internal/mechanism gets per-voltage
// curves, dynamic table columns, a min-VDD row and an area-overhead row
// — for any selection of mechanisms. The nil selection is the paper's
// default set, which renders the golden analytical tables, while
// `-mechanisms tscache,l2c2,proposed` renders the same table shapes for
// any competitor set.

// MechanismSetup bridges a memoized CacheSetup to the mechanism
// package's value-form Setup with nLowVDDs low-voltage levels.
func (cs *CacheSetup) MechanismSetup(nLowVDDs int) mechanism.Setup {
	return mechanism.Setup{
		Org: cs.Org, Tech: cs.Tech,
		CM: cs.CM, CMPCS: cs.CMPCS,
		BER: cs.BER, FM: cs.FM,
		NLowVDDs: nLowVDDs,
	}
}

// ResolveMechanisms maps a -mechanisms selection to registry entries in
// rank order; nil/empty means the paper's default comparison set.
func ResolveMechanisms(names []string) ([]mechanism.Descriptor, error) {
	return mechanism.Resolve(names)
}

// resolvedSel is a resolved selection with its memo digest.
type resolvedSel struct {
	ds     []mechanism.Descriptor
	digest string
}

// defaultSelKey memoizes the resolved default selection, so a nil
// selection (every golden table) costs one memo lookup per call rather
// than a registry resolution.
type defaultSelKey struct{}

// resolveSel resolves a selection to its descriptors and memo digest.
func resolveSel(names []string) ([]mechanism.Descriptor, string, error) {
	if len(names) == 0 {
		v, err := memo.Get(memos.Load(), defaultSelKey{}, func() (resolvedSel, error) {
			ds, err := ResolveMechanisms(nil)
			return resolvedSel{ds: ds, digest: selDigest(ds)}, err
		})
		return v.ds, v.digest, err
	}
	ds, err := ResolveMechanisms(names)
	if err != nil {
		return nil, "", err
	}
	return ds, selDigest(ds), nil
}

// selDigest is the canonical memo identity of a resolved selection.
func selDigest(ds []mechanism.Descriptor) string {
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = d.Name + "@" + d.Version
	}
	return strings.Join(names, ",")
}

// Memo keys for the registry-driven layer. Selections are keyed by
// their canonical name@version digest, mechanism instances and curves
// by (org, level count, name, version) — all value identities, never
// pointers, so equivalent but distinctly-constructed inputs hit.
type (
	mechInstKey struct {
		org      cacti.Org
		nLowVDDs int
		name     string
		version  string
	}
	mechCurveKey  mechInstKey
	fig3aMechsKey struct {
		org      cacti.Org
		nLowVDDs int
		sel      string
	}
	fig3bMechsKey struct {
		org cacti.Org
		sel string
	}
	fig3dMechsKey  fig3bMechsKey
	minVDDMechsKey fig3bMechsKey
	mechAreasKey   fig3bMechsKey
	mechTablesKey  fig3bMechsKey
)

// mechanismFor builds (or serves the memoized) mechanism instance on
// the organisation's shared model stack.
func mechanismFor(org cacti.Org, nLowVDDs int, d mechanism.Descriptor) (mechanism.Mechanism, error) {
	key := mechInstKey{org: org, nLowVDDs: nLowVDDs, name: d.Name, version: d.Version}
	return memo.Get(memos.Load(), key, func() (mechanism.Mechanism, error) {
		cs, err := NewCacheSetup(org, nLowVDDs+1)
		if err != nil {
			return nil, err
		}
		return d.New(cs.MechanismSetup(nLowVDDs))
	})
}

// MechCurve samples one mechanism's analytical model over the shared
// voltage grid [VLo, VHi].
type MechCurve struct {
	Name, Label, ShortLabel string
	VDDs                    []float64
	Capacity                []float64
	PowerW                  []float64
	Yield                   []float64
}

// Points converts the curve to Fig. 3a (capacity, power) samples.
func (c *MechCurve) Points() []Fig3aPoint {
	if c == nil {
		return nil
	}
	pts := make([]Fig3aPoint, len(c.VDDs))
	for i := range c.VDDs {
		pts[i] = Fig3aPoint{VDD: c.VDDs[i], Capacity: c.Capacity[i], PowerW: c.PowerW[i]}
	}
	return pts
}

// mechCurveFor memoizes one mechanism's full per-voltage curve.
func mechCurveFor(org cacti.Org, nLowVDDs int, d mechanism.Descriptor) (*MechCurve, error) {
	key := mechCurveKey{org: org, nLowVDDs: nLowVDDs, name: d.Name, version: d.Version}
	return memo.Get(memos.Load(), key, func() (*MechCurve, error) {
		cs, err := NewCacheSetup(org, nLowVDDs+1)
		if err != nil {
			return nil, err
		}
		m, err := mechanismFor(org, nLowVDDs, d)
		if err != nil {
			return nil, err
		}
		c := &MechCurve{Name: d.Name, Label: d.Label, ShortLabel: d.ShortLabel}
		for _, v := range faultmodel.Grid(VLo, VHi) {
			c.VDDs = append(c.VDDs, v)
			c.Capacity = append(c.Capacity, m.EffectiveCapacity(v))
			c.PowerW = append(c.PowerW, m.StaticPower(cs.CM, v))
			c.Yield = append(c.Yield, m.Yield(v))
		}
		return c, nil
	})
}

// scalersOf returns the selection's voltage-scaling mechanisms in
// rank-descending order (strongest first — the paper's column order).
func scalersOf(ds []mechanism.Descriptor) []mechanism.Descriptor {
	var out []mechanism.Descriptor
	for i := len(ds) - 1; i >= 0; i-- {
		if ds[i].Scales {
			out = append(out, ds[i])
		}
	}
	return out
}

// steppersOf returns the selection's discrete-step mechanisms,
// rank-descending.
func steppersOf(ds []mechanism.Descriptor) []mechanism.Descriptor {
	var out []mechanism.Descriptor
	for i := len(ds) - 1; i >= 0; i-- {
		if ds[i].Steps {
			out = append(out, ds[i])
		}
	}
	return out
}

// yieldersOf returns the selection's yield-curve mechanisms in rank
// order (weakest first — the paper's row order).
func yieldersOf(ds []mechanism.Descriptor) []mechanism.Descriptor {
	var out []mechanism.Descriptor
	for _, d := range ds {
		if d.Yields {
			out = append(out, d)
		}
	}
	return out
}

// MechStepCurve is a discrete (capacity, power) trade-off at nominal
// voltage (way gating's line in Fig. 3a).
type MechStepCurve struct {
	Name, Label string
	Caps, Watts []float64
}

// Fig3aSelData holds the per-mechanism curves of one Fig. 3a rendering.
type Fig3aSelData struct {
	Org    string
	Curves []*MechCurve
	Steps  []MechStepCurve
}

// Curve returns the named mechanism's curve, or nil.
func (d Fig3aSelData) Curve(name string) *MechCurve {
	return curveByName(d.Curves, name)
}

// curveByName finds a mechanism's curve in a slice, or nil.
func curveByName(cs []*MechCurve, name string) *MechCurve {
	for _, c := range cs {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Fig3aMechs renders Fig. 3a — static power vs effective capacity —
// for any mechanism selection (nil = the paper's default set).
// nLowVDDs configures how many low-voltage levels map-carrying schemes
// pay for (2 reproduces the paper's three-level comparison).
func Fig3aMechs(org cacti.Org, nLowVDDs int, names []string) (Fig3aSelData, *report.Table, error) {
	ds, sel, err := resolveSel(names)
	if err != nil {
		return Fig3aSelData{}, nil, err
	}
	key := fig3aMechsKey{org: org, nLowVDDs: nLowVDDs, sel: sel}
	v, err := memo.Get(memos.Load(), key, func() (rowsAndTable[Fig3aSelData], error) {
		data := Fig3aSelData{Org: org.Name}
		for _, d := range scalersOf(ds) {
			c, err := mechCurveFor(org, nLowVDDs, d)
			if err != nil {
				return rowsAndTable[Fig3aSelData]{}, err
			}
			data.Curves = append(data.Curves, c)
		}
		for _, d := range steppersOf(ds) {
			m, err := mechanismFor(org, nLowVDDs, d)
			if err != nil {
				return rowsAndTable[Fig3aSelData]{}, err
			}
			sc, ok := m.(mechanism.StepCurver)
			if !ok {
				return rowsAndTable[Fig3aSelData]{}, fmt.Errorf("expers: mechanism %q registered Steps but implements no PowerCapacityCurve", d.Name)
			}
			caps, watts := sc.PowerCapacityCurve()
			data.Steps = append(data.Steps, MechStepCurve{Name: d.Name, Label: d.Label, Caps: caps, Watts: watts})
		}
		headers := []string{"VDD (V)"}
		for _, c := range data.Curves {
			headers = append(headers, c.ShortLabel+" cap", c.ShortLabel+" mW")
		}
		t := report.NewTable(
			fmt.Sprintf("Fig. 3a — static power vs effective capacity (%s)", org.Name),
			headers...)
		for i, v := range faultmodel.Grid(VLo, VHi) {
			row := []any{fmt.Sprintf("%.2f", v)}
			for _, c := range data.Curves {
				row = append(row, fmt.Sprintf("%.4f", c.Capacity[i]), fmt.Sprintf("%.3f", c.PowerW[i]*1e3))
			}
			t.AddRow(row...)
		}
		return rowsAndTable[Fig3aSelData]{rows: data, t: t}, nil
	})
	return v.rows, v.t, err
}

// Fig3bMechs renders Fig. 3b — proportion of usable blocks vs VDD —
// for any mechanism selection (nil = default set).
func Fig3bMechs(org cacti.Org, names []string) ([]*MechCurve, *report.Table, error) {
	ds, sel, err := resolveSel(names)
	if err != nil {
		return nil, nil, err
	}
	key := fig3bMechsKey{org: org, sel: sel}
	v, err := memo.Get(memos.Load(), key, func() (rowsAndTable[[]*MechCurve], error) {
		var curves []*MechCurve
		for _, d := range scalersOf(ds) {
			c, err := mechCurveFor(org, 2, d)
			if err != nil {
				return rowsAndTable[[]*MechCurve]{}, err
			}
			curves = append(curves, c)
		}
		headers := []string{"VDD (V)"}
		for _, c := range curves {
			headers = append(headers, c.Label)
		}
		t := report.NewTable(
			fmt.Sprintf("Fig. 3b — proportion of usable blocks vs VDD (%s)", org.Name),
			headers...)
		for i, v := range faultmodel.Grid(VLo, VHi) {
			row := []any{fmt.Sprintf("%.2f", v)}
			for _, c := range curves {
				row = append(row, fmt.Sprintf("%.4f", c.Capacity[i]))
			}
			t.AddRow(row...)
		}
		return rowsAndTable[[]*MechCurve]{rows: curves, t: t}, nil
	})
	return v.rows, v.t, err
}

// Fig3dMechs renders Fig. 3d — yield vs VDD — for any mechanism
// selection (nil = default set), weakest scheme first.
func Fig3dMechs(org cacti.Org, names []string) ([]*MechCurve, *report.Table, error) {
	ds, sel, err := resolveSel(names)
	if err != nil {
		return nil, nil, err
	}
	key := fig3dMechsKey{org: org, sel: sel}
	v, err := memo.Get(memos.Load(), key, func() (rowsAndTable[[]*MechCurve], error) {
		var curves []*MechCurve
		for _, d := range yieldersOf(ds) {
			c, err := mechCurveFor(org, 2, d)
			if err != nil {
				return rowsAndTable[[]*MechCurve]{}, err
			}
			curves = append(curves, c)
		}
		headers := []string{"VDD (V)"}
		for _, c := range curves {
			headers = append(headers, c.Label)
		}
		t := report.NewTable(
			fmt.Sprintf("Fig. 3d — yield vs VDD (%s)", org.Name),
			headers...)
		for i, v := range faultmodel.Grid(VLo, VHi) {
			row := []any{fmt.Sprintf("%.2f", v)}
			for _, c := range curves {
				row = append(row, fmt.Sprintf("%.4f", c.Yield[i]))
			}
			t.AddRow(row...)
		}
		return rowsAndTable[[]*MechCurve]{rows: curves, t: t}, nil
	})
	return v.rows, v.t, err
}

// MinVDDRow summarises one scheme's min-VDD at 99 % yield for one org.
type MinVDDRow struct {
	Scheme string
	MinVDD float64
	OK     bool
}

// MinVDDMechs computes each selected mechanism's minimum voltage at
// 99 % yield (nil = default set), weakest scheme first.
func MinVDDMechs(org cacti.Org, names []string) ([]MinVDDRow, *report.Table, error) {
	ds, sel, err := resolveSel(names)
	if err != nil {
		return nil, nil, err
	}
	key := minVDDMechsKey{org: org, sel: sel}
	v, err := memo.Get(memos.Load(), key, func() (rowsAndTable[[]MinVDDRow], error) {
		rows := []MinVDDRow{}
		for _, d := range yieldersOf(ds) {
			m, err := mechanismFor(org, 2, d)
			if err != nil {
				return rowsAndTable[[]MinVDDRow]{}, err
			}
			v, ok := m.MinVDDForYield(0.99, VLo, VHi)
			rows = append(rows, MinVDDRow{Scheme: d.Label, MinVDD: v, OK: ok})
		}
		t := report.NewTable(fmt.Sprintf("Min-VDD at 99%% yield (%s)", org.Name), "Scheme", "Min VDD (V)")
		for _, r := range rows {
			cell := "n/a"
			if r.OK {
				cell = fmt.Sprintf("%.2f", r.MinVDD)
			}
			t.AddRow(r.Scheme, cell)
		}
		return rowsAndTable[[]MinVDDRow]{rows: rows, t: t}, nil
	})
	return v.rows, v.t, err
}

// MechAreaRow is one mechanism's area-overhead summary.
type MechAreaRow struct {
	Name, Label string
	Fraction    float64
	Detail      string
}

// MechanismAreas reports each selected mechanism's area overhead on the
// organisation (nil = default set), in rank order.
func MechanismAreas(org cacti.Org, names []string) ([]MechAreaRow, *report.Table, error) {
	ds, sel, err := resolveSel(names)
	if err != nil {
		return nil, nil, err
	}
	key := mechAreasKey{org: org, sel: sel}
	v, err := memo.Get(memos.Load(), key, func() (rowsAndTable[[]MechAreaRow], error) {
		var rows []MechAreaRow
		t := report.NewTable(fmt.Sprintf("Mechanism area overheads (%s)", org.Name),
			"Mechanism", "Overhead %", "Adds")
		for _, d := range ds {
			m, err := mechanismFor(org, 2, d)
			if err != nil {
				return rowsAndTable[[]MechAreaRow]{}, err
			}
			ao := m.AreaOverhead()
			rows = append(rows, MechAreaRow{Name: d.Name, Label: d.Label, Fraction: ao.Fraction, Detail: ao.Detail})
			t.AddRow(d.Label, fmt.Sprintf("%.2f", ao.Fraction*100), ao.Detail)
		}
		return rowsAndTable[[]MechAreaRow]{rows: rows, t: t}, nil
	})
	return v.rows, v.t, err
}

// MechanismTables collects the scheme-specific extra tables (TS-Cache
// replay penalties, L2C2 salvage probabilities, ...) of a selection, in
// rank order. Mechanisms without extra tables contribute nothing — the
// default set contributes none, keeping the golden output untouched.
func MechanismTables(org cacti.Org, names []string) ([]*report.Table, error) {
	ds, sel, err := resolveSel(names)
	if err != nil {
		return nil, err
	}
	key := mechTablesKey{org: org, sel: sel}
	v, err := memo.Get(memos.Load(), key, func() ([]*report.Table, error) {
		var tables []*report.Table
		for _, d := range ds {
			m, err := mechanismFor(org, 2, d)
			if err != nil {
				return nil, err
			}
			if tb, ok := m.(mechanism.Tabler); ok {
				tables = append(tables, tb.Tables(VLo, VHi)...)
			}
		}
		return tables, nil
	})
	return v, err
}

// MechanismList renders the registry for `pcs analytical
// -list-mechanisms`: every entry with its identity, comparison roles
// and one-line summary.
func MechanismList() *report.Table {
	t := report.NewTable("Registered mechanisms (selection order = rank)",
		"Name", "Label", "Version", "Default", "Roles", "Summary")
	for _, d := range mechanism.All() {
		var roles []string
		if d.Scales {
			roles = append(roles, "scales")
		}
		if d.Yields {
			roles = append(roles, "yields")
		}
		if d.Steps {
			roles = append(roles, "steps")
		}
		def := ""
		if d.Default {
			def = "yes"
		}
		t.AddRow(d.Name, d.Label, d.Version, def, strings.Join(roles, "+"), d.Summary)
	}
	return t
}

// OrgByName resolves a cache-organisation selector ("l1a", "l2a",
// "l1b", "l2b", case-insensitive) to its Table-2 organisation.
func OrgByName(name string) (cacti.Org, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "l1a":
		return L1ConfigA(), nil
	case "l2a":
		return L2ConfigA(), nil
	case "l1b":
		return L1ConfigB(), nil
	case "l2b":
		return L2ConfigB(), nil
	default:
		return cacti.Org{}, fmt.Errorf("expers: unknown org %q (want l1a, l2a, l1b or l2b)", name)
	}
}
