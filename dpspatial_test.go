package dpspatial

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func clusterPoints(n int, cx, cy float64) []Point {
	r := NewRand(12345)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: cx + 0.3*r.NormFloat64(), Y: cy + 0.3*r.NormFloat64()}
	}
	return pts
}

func TestEstimateQuickstart(t *testing.T) {
	pts := clusterPoints(20000, 5, 5)
	est, err := Estimate(pts, 8, 4, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Total()-1) > 1e-9 {
		t.Fatalf("estimate total %v", est.Total())
	}
	// The mass should concentrate near the cluster centre cell.
	c := est.Dom.CellOf(Point{X: 5, Y: 5})
	centreMass := 0.0
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			cc := Cell{X: c.X + dx, Y: c.Y + dy}
			if est.Dom.Contains(cc) {
				centreMass += est.At(cc)
			}
		}
	}
	if centreMass < 0.3 {
		t.Fatalf("estimate failed to concentrate: centre mass %v", centreMass)
	}
}

func TestEstimateMechanismSelection(t *testing.T) {
	pts := clusterPoints(2000, 0, 0)
	for _, mech := range EstimateMechanismNames() {
		est, err := Estimate(pts, 5, 2, WithMechanism(mech), WithSeed(2))
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		if math.Abs(est.Total()-1) > 1e-9 {
			t.Fatalf("%s: total %v", mech, est.Total())
		}
	}
	_, err := Estimate(pts, 5, 2, WithMechanism("nope"))
	if err == nil {
		t.Fatal("unknown mechanism accepted")
	}
	for _, name := range EstimateMechanismNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list accepted mechanism %s", err, name)
		}
	}
}

// TestEstimateIndependentOfGOMAXPROCS pins "one answer for any core
// count": the one-call pipeline for every mechanism, and the local
// privacy metric behind SEM-Geo-I's calibration, return the same bits
// whatever GOMAXPROCS is. It changes a process-wide setting, so it must
// not run in parallel with other tests.
func TestEstimateIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	pts := clusterPoints(3000, 2, 2)
	dom, err := NewDomain(0, 0, 15, 15)
	if err != nil {
		t.Fatal(err)
	}
	dam, err := NewDAM(dom, 2)
	if err != nil {
		t.Fatal(err)
	}
	sem, err := NewSEMGeoI(dom, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	bitsAt := func() map[string][]uint64 {
		got := map[string][]uint64{}
		for _, name := range EstimateMechanismNames() {
			est, err := Estimate(pts, 6, 2, WithMechanism(name), WithSeed(4))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, m := range est.Mass {
				got["Estimate "+name] = append(got["Estimate "+name], math.Float64bits(m))
			}
		}
		for name, m := range map[string]Mechanism{"DAM": dam, "SEM-Geo-I": sem} {
			lp, err := LocalPrivacy(dom, m)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got["LocalPrivacy "+name] = []uint64{math.Float64bits(lp)}
		}
		return got
	}
	runtime.GOMAXPROCS(1)
	want := bitsAt()
	for _, procs := range []int{2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for key, bits := range bitsAt() {
			if !slices.Equal(bits, want[key]) {
				t.Errorf("GOMAXPROCS=%d: %s differs from GOMAXPROCS=1", procs, key)
			}
		}
	}
}

// TestWithOptionsAccumulates pins that repeated WithOptions calls add
// up instead of the last one replacing the rest.
func TestWithOptionsAccumulates(t *testing.T) {
	pts := clusterPoints(3000, 2, 2)
	run := func(opts ...EstimateOption) *Histogram {
		t.Helper()
		est, err := Estimate(pts, 6, 2, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	split := run(WithOptions(WithRadius(0)), WithOptions(WithSmoothing()))
	joint := run(WithOptions(WithRadius(0), WithSmoothing()))
	smoothOnly := run(WithOptions(WithSmoothing()))
	if !slices.Equal(split.Mass, joint.Mass) {
		t.Fatal("two WithOptions calls differ from one call with both options")
	}
	if slices.Equal(joint.Mass, smoothOnly.Mass) {
		t.Fatal("the radius option has no effect, so this test cannot tell the calls apart")
	}
}

func TestEstimateEmptyPoints(t *testing.T) {
	if _, err := Estimate(nil, 5, 2); err == nil {
		t.Fatal("empty point set accepted")
	}
}

func TestEstimateDeterministicWithSeed(t *testing.T) {
	pts := clusterPoints(3000, 1, 1)
	a, err := Estimate(pts, 6, 2, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(pts, 6, 2, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Mass {
		if a.Mass[i] != b.Mass[i] {
			t.Fatal("same seed produced different estimates")
		}
	}
}

func TestMechanismConstructorsAndMetrics(t *testing.T) {
	dom, err := NewDomain(0, 0, 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	dam, err := NewDAM(dom, 3)
	if err != nil {
		t.Fatal(err)
	}
	truth := HistFromPoints(dom, clusterPoints(5000, 5, 5))
	est, err := dam.EstimateHist(truth, NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	normTruth := truth.Clone().Normalize()
	w2, err := Wasserstein2(normTruth, est)
	if err != nil {
		t.Fatal(err)
	}
	w2s, err := Wasserstein2Sinkhorn(normTruth, est)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := SlicedWasserstein(normTruth, est, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if w2 < 0 || w2s < 0 || sw < 0 {
		t.Fatalf("negative distances: %v %v %v", w2, w2s, sw)
	}
	if sw > w2+1e-6 {
		t.Fatalf("sliced distance %v exceeds W2 %v", sw, w2)
	}
}

func TestWithRadiusOption(t *testing.T) {
	dom, err := NewDomain(0, 0, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewDAM(dom, 2, WithRadius(1))
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewDAM(dom, 2, WithRadius(3))
	if err != nil {
		t.Fatal(err)
	}
	if small.Name() != "DAM" || big.Name() != "DAM" {
		t.Fatal("unexpected mechanism names")
	}
}

func TestOptimalRadiusMonotoneInEps(t *testing.T) {
	prev := math.Inf(1)
	for _, eps := range []float64{0.5, 1, 2, 4, 8} {
		b, err := OptimalRadius(eps, 1)
		if err != nil {
			t.Fatal(err)
		}
		if b >= prev {
			t.Fatalf("b̌(%v) = %v not decreasing", eps, b)
		}
		prev = b
	}
}

func TestLocalPrivacyAndCalibration(t *testing.T) {
	dom, err := NewDomain(0, 0, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	dam, err := NewDAM(dom, 2)
	if err != nil {
		t.Fatal(err)
	}
	lpDAM, err := LocalPrivacy(dom, dam)
	if err != nil {
		t.Fatal(err)
	}
	if lpDAM <= 0 {
		t.Fatalf("DAM local privacy %v", lpDAM)
	}
	epsGeo, err := CalibrateSEMGeoI(dom, 2)
	if err != nil {
		t.Fatal(err)
	}
	sem, err := NewSEMGeoI(dom, epsGeo)
	if err != nil {
		t.Fatal(err)
	}
	lpSEM, err := LocalPrivacy(dom, sem)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lpSEM-lpDAM) > 0.05*lpDAM {
		t.Fatalf("calibrated SEM LP %v vs DAM LP %v", lpSEM, lpDAM)
	}
	// MDSW does not expose a per-cell channel.
	mdswMech, err := NewMDSW(dom, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LocalPrivacy(dom, mdswMech); err == nil {
		t.Fatal("LocalPrivacy accepted a marginal mechanism")
	}
}

// TestSEMGeoIOneCellGrid: a one-cell grid leaks nothing, so the
// calibration returns ε itself and the estimate is the single cell.
func TestSEMGeoIOneCellGrid(t *testing.T) {
	dom, err := NewDomain(0, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMechanism("SEM-Geo-I", dom, 2); err != nil {
		t.Fatal(err)
	}
	pts := []Point{{X: 0.1, Y: 0.2}, {X: 0.5, Y: 0.7}, {X: 0.9, Y: 0.4}}
	est, err := Estimate(pts, 1, 2, WithMechanism("SEM-Geo-I"))
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Mass) != 1 || est.Mass[0] != 1 {
		t.Fatalf("one-cell estimate %v, want [1]", est.Mass)
	}
}

func TestDAMBeatsMDSWPublicAPI(t *testing.T) {
	// The paper's headline result through the public API: on correlated
	// Gaussian data DAM's recovered distribution is closer in W2.
	r := NewRand(77)
	pts := make([]Point, 30000)
	for i := range pts {
		z1, z2 := r.NormFloat64(), r.NormFloat64()
		pts[i] = Point{X: z1, Y: 0.5*z1 + 0.866*z2}
	}
	dom, err := DomainOver(pts, 6)
	if err != nil {
		t.Fatal(err)
	}
	truth := HistFromPoints(dom, pts)
	normTruth := truth.Clone().Normalize()

	eval := func(m Mechanism) float64 {
		est, err := m.EstimateHist(truth, NewRand(5))
		if err != nil {
			t.Fatal(err)
		}
		w2, err := Wasserstein2(normTruth, est)
		if err != nil {
			t.Fatal(err)
		}
		return w2
	}
	dam, err := NewDAM(dom, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	mdswMech, err := NewMDSW(dom, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	if wDAM, wMDSW := eval(dam), eval(mdswMech); wDAM >= wMDSW {
		t.Fatalf("DAM W2 %v not below MDSW %v", wDAM, wMDSW)
	}
}
