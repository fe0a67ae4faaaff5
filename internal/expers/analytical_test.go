package expers

import (
	"math"
	"strings"
	"testing"
)

func TestFig2Shape(t *testing.T) {
	pts, tbl := Fig2()
	if len(pts) != 71 {
		t.Fatalf("%d points", len(pts))
	}
	// Monotone non-increasing BER with voltage; paper magnitudes.
	for i := 1; i < len(pts); i++ {
		if pts[i].BER > pts[i-1].BER+1e-18 {
			t.Fatalf("BER rose with voltage at %v", pts[i].VDD)
		}
	}
	if pts[len(pts)-1].BER > 1e-8 {
		t.Errorf("BER at 1.0 V = %v", pts[len(pts)-1].BER)
	}
	if pts[0].BER < 1e-3 {
		t.Errorf("BER at 0.3 V = %v", pts[0].BER)
	}
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
}

// stepPoints converts a discrete step curve to Fig. 3a samples.
func stepPoints(s MechStepCurve) []Fig3aPoint {
	pts := make([]Fig3aPoint, len(s.Caps))
	for i := range s.Caps {
		pts[i] = Fig3aPoint{Capacity: s.Caps[i], PowerW: s.Watts[i]}
	}
	return pts
}

func TestFig3aProposedDominates(t *testing.T) {
	d, tbl, err := Fig3aMechs(L1ConfigA(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	proposed, fft := d.Curve("proposed").Points(), d.Curve("fftcache").Points()
	var wayGate []Fig3aPoint
	for _, s := range d.Steps {
		if s.Name == "waygate" {
			wayGate = stepPoints(s)
		}
	}
	if tbl == nil || len(proposed) != 71 || len(wayGate) != 5 {
		t.Fatal("curve shapes")
	}
	// At every achievable capacity >= 50%, proposed must beat both
	// baselines (the paper's headline Fig. 3a claim).
	for _, target := range []float64{0.5, 0.7, 0.9, 0.95, 0.99, 0.999} {
		pp, ok1 := PowerAtCapacity(proposed, target)
		pf, ok2 := PowerAtCapacity(fft, target)
		pw, ok3 := PowerAtCapacity(wayGate, target)
		if !ok1 {
			t.Fatalf("proposed curve misses capacity %v", target)
		}
		if ok2 && pp >= pf {
			t.Errorf("at %v capacity: proposed %v >= FFT %v", target, pp, pf)
		}
		if ok3 && pp >= pw {
			t.Errorf("at %v capacity: proposed %v >= way gating %v", target, pp, pw)
		}
	}
}

func TestFig3aGapMatchesPaper(t *testing.T) {
	// Paper: 28.2% lower static power than FFT-Cache at 99% capacity
	// with 3 VDD levels; 17.8% with 2 levels.
	gap3, err := Fig3aGapAt99(L1ConfigA(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if gap3 < 0.22 || gap3 > 0.34 {
		t.Errorf("3-level gap %.1f%%, paper reports 28.2%%", gap3*100)
	}
	gap2, err := Fig3aGapAt99(L1ConfigA(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if gap2 < 0.13 || gap2 > 0.23 {
		t.Errorf("2-level gap %.1f%%, paper reports 17.8%%", gap2*100)
	}
	if gap2 >= gap3 {
		t.Errorf("gap should grow with levels: %v vs %v", gap2, gap3)
	}
}

func TestFig3bFFTDominates(t *testing.T) {
	curves, _, err := Fig3bMechs(L1ConfigA(), nil)
	if err != nil {
		t.Fatal(err)
	}
	prop, fft := curveByName(curves, "proposed"), curveByName(curves, "fftcache")
	if prop == nil || fft == nil {
		t.Fatal("default set misses proposed/fftcache")
	}
	for i, v := range prop.VDDs {
		if v < 0.42 {
			continue // below FFT's saturation cliff
		}
		if fft.Capacity[i] < prop.Capacity[i]-1e-9 {
			t.Errorf("FFT capacity below proposed at %v V", v)
		}
	}
}

func TestFig3cDecomposition(t *testing.T) {
	rows, _, err := Fig3c(L1ConfigA())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.DataNoPeriphW > r.DataWithPeriphW || r.DataWithPeriphW > r.TotalW {
			t.Fatalf("nesting violated at %v V: %+v", r.VDD, r)
		}
		if r.TagW <= 0 || r.TotalW <= 0 {
			t.Fatalf("non-positive components at %v V", r.VDD)
		}
	}
	// Leakage falls as voltage falls (cells scale + more gating).
	if rows[0].TotalW >= rows[len(rows)-1].TotalW {
		t.Error("total leakage did not fall at low voltage")
	}
}

func TestFig3dOrdering(t *testing.T) {
	curves, _, err := Fig3dMechs(L1ConfigA(), nil)
	if err != nil {
		t.Fatal(err)
	}
	yield := map[string][]float64{}
	for _, c := range curves {
		yield[c.Name] = c.Yield
	}
	names := []string{"conventional", "secded", "dected", "fftcache", "proposed"}
	for _, n := range names {
		if len(yield[n]) != 71 {
			t.Fatalf("%s yield curve has %d points, want 71", n, len(yield[n]))
		}
	}
	conv, secded, dected, prop := yield["conventional"], yield["secded"], yield["dected"], yield["proposed"]
	for i, v := range curves[0].VDDs {
		// Conventional is always the weakest; SECDED <= DECTED.
		if conv[i] > secded[i]+1e-9 || secded[i] > dected[i]+1e-9 {
			t.Fatalf("ECC ordering violated at %v V", v)
		}
		// Proposed beats SECDED throughout the operating region (the
		// min-VDD comparison lives in TestMinVDDsOrdering; far below
		// both schemes' min-VDD the yield curves may cross).
		if v >= 0.50 && prop[i] < secded[i]-1e-9 {
			t.Fatalf("proposed below SECDED at %v V", v)
		}
		for _, n := range names {
			if y := yield[n][i]; y < 0 || y > 1 {
				t.Fatalf("%s yield out of range at %v V", n, v)
			}
		}
	}
}

func TestMinVDDsOrdering(t *testing.T) {
	rows, _, err := MinVDDMechs(L1ConfigA(), nil)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, r := range rows {
		if !r.OK {
			t.Fatalf("%s min VDD not found", r.Scheme)
		}
		byName[r.Scheme] = r.MinVDD
	}
	// Paper Fig. 3d: conventional worst; proposed better than SECDED;
	// DECTED slightly better than proposed at this low associativity;
	// FFT-Cache better than proposed.
	if !(byName["Proposed"] < byName["SECDED"] && byName["SECDED"] < byName["Conventional"]) {
		t.Errorf("ordering: %+v", byName)
	}
	if byName["DECTED"] > byName["Proposed"] {
		t.Errorf("DECTED %v above proposed %v", byName["DECTED"], byName["Proposed"])
	}
	if byName["FFT-Cache"] >= byName["Proposed"] {
		t.Errorf("FFT %v not below proposed %v", byName["FFT-Cache"], byName["Proposed"])
	}
}

func TestAreaOverheadsInPaperRange(t *testing.T) {
	rows, _, err := AreaOverheads()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Paper: total area overhead 2-5%.
		if r.OverheadFraction < 0.02 || r.OverheadFraction > 0.05 {
			t.Errorf("%s overhead %.1f%% outside 2-5%%", r.Org, r.OverheadFraction*100)
		}
		if r.PowerGateMM2 <= 0 || r.FaultMapMM2 <= 0 {
			t.Errorf("%s zero overhead component", r.Org)
		}
	}
}

func TestVDDPlans(t *testing.T) {
	rows, _, err := VDDPlans()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !(r.VDD1 <= r.VDD2 && r.VDD2 < r.VDD3) {
			t.Errorf("%s levels unordered: %v %v %v", r.Org, r.VDD1, r.VDD2, r.VDD3)
		}
		// Paper: delay degradation ~15% worst case at min VDD.
		if r.DelayDegradationVDD1 > 0.20 {
			t.Errorf("%s delay degradation %v", r.Org, r.DelayDegradationVDD1)
		}
		if r.CapacityAtVDD1 < 0.89 {
			t.Errorf("%s capacity at VDD1 %v", r.Org, r.CapacityAtVDD1)
		}
	}
	// Config B (higher associativity) reaches VDD1 at or below Config A.
	if rows[3].VDD1 > rows[1].VDD1 { // L2-B vs L2-A
		t.Errorf("L2-B VDD1 %v above L2-A %v", rows[3].VDD1, rows[1].VDD1)
	}
}

func TestPowerAtCapacity(t *testing.T) {
	curve := []Fig3aPoint{
		{Capacity: 0.5, PowerW: 1},
		{Capacity: 0.9, PowerW: 2},
		{Capacity: 1.0, PowerW: 4},
	}
	p, ok := PowerAtCapacity(curve, 0.95)
	if !ok || math.Abs(p-3) > 1e-12 {
		t.Errorf("interpolated power %v ok=%v, want 3", p, ok)
	}
	if _, ok := PowerAtCapacity(curve, 0.2); ok {
		t.Error("off-curve capacity found")
	}
	// Exact hit on a vertex.
	p, ok = PowerAtCapacity(curve, 0.9)
	if !ok || p != 2 {
		t.Errorf("vertex power %v", p)
	}
}

func TestNewCacheSetupFMBits(t *testing.T) {
	cs, err := NewCacheSetup(L1ConfigA(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if cs.CMPCS.FMBitsPerBlock != 3 { // 2 FM bits + faulty bit
		t.Errorf("FM bits per block %d", cs.CMPCS.FMBitsPerBlock)
	}
	if cs.CM.PCS {
		t.Error("baseline model has PCS set")
	}
}
