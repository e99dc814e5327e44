package localprivacy_test

import (
	"math"
	"testing"

	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
	"dpspatial/internal/localprivacy"
	"dpspatial/internal/sam"
	"dpspatial/internal/semgeoi"
)

func testDomain(t *testing.T, d int) grid.Domain {
	t.Helper()
	dom, err := grid.NewDomain(0, 0, float64(d), d)
	if err != nil {
		t.Fatal(err)
	}
	return dom
}

func TestComputeIdentityChannelHasZeroPrivacy(t *testing.T) {
	// A noiseless channel lets the adversary locate the user exactly:
	// LP = 0.
	dom := testDomain(t, 3)
	n := dom.NumCells()
	ch := fo.NewChannel(n, n)
	for i := 0; i < n; i++ {
		ch.Set(i, i, 1)
	}
	lp, err := localprivacy.Compute(dom, ch)
	if err != nil {
		t.Fatal(err)
	}
	if lp > 1e-12 {
		t.Fatalf("identity-channel LP = %v, want 0", lp)
	}
}

func TestComputeUniformChannelHasMaxPrivacy(t *testing.T) {
	// A channel that ignores its input gives the adversary nothing: LP
	// equals the prior expected distance between two uniform cells.
	dom := testDomain(t, 3)
	n := dom.NumCells()
	ch := fo.NewChannel(n, 1)
	for i := 0; i < n; i++ {
		ch.Set(i, 0, 1)
	}
	lp, err := localprivacy.Compute(dom, ch)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want += dom.CellAt(i).CenterDist(dom.CellAt(j))
		}
	}
	want /= float64(n * n)
	if math.Abs(lp-want) > 1e-9 {
		t.Fatalf("uniform-channel LP = %v, want prior %v", lp, want)
	}
}

func TestComputeMonotoneInEpsilonForDAM(t *testing.T) {
	dom := testDomain(t, 4)
	prev := math.Inf(1)
	for _, eps := range []float64{0.5, 1, 2, 4} {
		m, err := sam.NewDAM(dom, eps)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := localprivacy.Compute(dom, m.Channel())
		if err != nil {
			t.Fatal(err)
		}
		if lp >= prev {
			t.Fatalf("LP(eps=%v)=%v did not decrease from %v", eps, lp, prev)
		}
		prev = lp
	}
}

func TestComputeMonotoneInEpsilonForSEM(t *testing.T) {
	dom := testDomain(t, 4)
	prev := math.Inf(1)
	for _, eps := range []float64{0.3, 1, 3} {
		m, err := semgeoi.New(dom, eps)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := localprivacy.Compute(dom, m.Channel())
		if err != nil {
			t.Fatal(err)
		}
		if lp >= prev {
			t.Fatalf("LP(eps=%v)=%v did not decrease from %v", eps, lp, prev)
		}
		prev = lp
	}
}

func TestComputeChannelSizeMismatch(t *testing.T) {
	dom := testDomain(t, 3)
	ch := fo.NewChannel(4, 4)
	if _, err := localprivacy.Compute(dom, ch); err == nil {
		t.Fatal("wrong channel size accepted")
	}
}

func TestCalibrateMatchesDAMPrivacy(t *testing.T) {
	// The Section VII-B experiment setup: pick ε for DAM, find the ε' at
	// which SEM-Geo-I has equal local privacy.
	dom := testDomain(t, 4)
	dam, err := sam.NewDAM(dom, 2.1)
	if err != nil {
		t.Fatal(err)
	}
	target, err := localprivacy.Compute(dom, dam.Channel())
	if err != nil {
		t.Fatal(err)
	}
	build := func(x float64) (*fo.Channel, error) {
		m, err := semgeoi.New(dom, x)
		if err != nil {
			return nil, err
		}
		return m.Channel(), nil
	}
	epsPrime, err := localprivacy.Calibrate(dom, target, build, 1e-3, 50)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := build(epsPrime)
	if err != nil {
		t.Fatal(err)
	}
	got, err := localprivacy.Compute(dom, ch)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-target) > 0.02*target {
		t.Fatalf("calibrated LP %v, target %v (eps'=%v)", got, target, epsPrime)
	}
}

func TestCalibrateClampsOutOfRangeTargets(t *testing.T) {
	dom := testDomain(t, 3)
	build := func(x float64) (*fo.Channel, error) {
		m, err := semgeoi.New(dom, x)
		if err != nil {
			return nil, err
		}
		return m.Channel(), nil
	}
	// Absurdly high target (more private than the most private bracket
	// end): calibrate returns the bracket's private end.
	x, err := localprivacy.Calibrate(dom, 1e6, build, 0.01, 10)
	if err != nil {
		t.Fatal(err)
	}
	if x != 0.01 {
		t.Fatalf("high target returned %v, want lo end 0.01", x)
	}
	// Near-zero target: least private end.
	x, err = localprivacy.Calibrate(dom, 1e-9, build, 0.01, 10)
	if err != nil {
		t.Fatal(err)
	}
	if x != 10 {
		t.Fatalf("low target returned %v, want hi end 10", x)
	}
}

func TestCalibrateErrors(t *testing.T) {
	dom := testDomain(t, 3)
	build := func(x float64) (*fo.Channel, error) {
		m, err := semgeoi.New(dom, x)
		if err != nil {
			return nil, err
		}
		return m.Channel(), nil
	}
	if _, err := localprivacy.Calibrate(dom, 0, build, 0.1, 1); err == nil {
		t.Fatal("zero target accepted")
	}
	if _, err := localprivacy.Calibrate(dom, 1, build, 1, 0.5); err == nil {
		t.Fatal("inverted bracket accepted")
	}
	if _, err := localprivacy.Calibrate(dom, 1, build, 0, 1); err == nil {
		t.Fatal("zero lo accepted")
	}
}
