package baselines

import (
	"math"
	"testing"

	"dpspatial/internal/geom"
	"dpspatial/internal/grid"
	"dpspatial/internal/rng"
)

func testDomain(t *testing.T, d int) grid.Domain {
	t.Helper()
	dom, err := grid.NewDomain(0, 0, float64(d), d)
	if err != nil {
		t.Fatal(err)
	}
	return dom
}

func TestCFOSatisfiesLDP(t *testing.T) {
	for _, d := range []int{2, 4} {
		for _, eps := range []float64{0.7, 3.5} {
			c, err := NewCFO(testDomain(t, d), eps)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Channel().Validate(); err != nil {
				t.Fatal(err)
			}
			ratio := c.Channel().MaxRatio()
			if math.Abs(ratio-math.Exp(eps)) > 1e-6*math.Exp(eps) {
				t.Fatalf("d=%d eps=%v: ratio %v, want e^ε", d, eps, ratio)
			}
		}
	}
}

func TestCFOIgnoresDistance(t *testing.T) {
	// The defining (mis)feature: a neighbouring cell and a far cell are
	// equally likely outputs.
	dom := testDomain(t, 5)
	c, err := NewCFO(dom, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := dom.Index(geom.Cell{X: 2, Y: 2})
	near := c.Channel().At(in, dom.Index(geom.Cell{X: 3, Y: 2}))
	far := c.Channel().At(in, dom.Index(geom.Cell{X: 0, Y: 4}))
	if near != far {
		t.Fatalf("CFO should be distance-blind: near %v, far %v", near, far)
	}
}

func TestCFOEstimateRecovers(t *testing.T) {
	dom := testDomain(t, 4)
	c, err := NewCFO(dom, 5)
	if err != nil {
		t.Fatal(err)
	}
	truth := grid.NewHist(dom)
	truth.Set(geom.Cell{X: 1, Y: 1}, 30000)
	truth.Set(geom.Cell{X: 2, Y: 3}, 10000)
	est, err := c.EstimateHist(truth, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	want := truth.Clone().Normalize()
	tv, err := grid.TotalVariation(est, want)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 0.1 {
		t.Fatalf("high-budget CFO recovery TV %v", tv)
	}
}

func TestCFOErrors(t *testing.T) {
	if _, err := NewCFO(testDomain(t, 1), 1); err == nil {
		t.Fatal("single-cell grid accepted")
	}
	if _, err := NewCFO(testDomain(t, 3), 0); err == nil {
		t.Fatal("eps=0 accepted")
	}
	c, err := NewCFO(testDomain(t, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	other := grid.NewHist(testDomain(t, 4))
	if _, err := c.EstimateHist(other, rng.New(1)); err == nil {
		t.Fatal("domain mismatch accepted")
	}
	bad := grid.NewHist(testDomain(t, 3))
	bad.Mass[0] = 1.5
	if _, err := c.EstimateHist(bad, rng.New(1)); err == nil {
		t.Fatal("fractional count accepted")
	}
}

func TestPlanarLaplaceChannelValidAndOrdered(t *testing.T) {
	dom := testDomain(t, 5)
	p, err := NewPlanarLaplace(dom, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Channel().Validate(); err != nil {
		t.Fatal(err)
	}
	in := dom.Index(geom.Cell{X: 2, Y: 2})
	self := p.Channel().At(in, in)
	near := p.Channel().At(in, dom.Index(geom.Cell{X: 3, Y: 2}))
	far := p.Channel().At(in, dom.Index(geom.Cell{X: 0, Y: 4}))
	if !(self > near && near > far) {
		t.Fatalf("probabilities not distance-ordered: %v %v %v", self, near, far)
	}
}

func TestPlanarLaplaceGeoIBound(t *testing.T) {
	for _, eps := range []float64{0.5, 2} {
		p, err := NewPlanarLaplace(testDomain(t, 4), eps)
		if err != nil {
			t.Fatal(err)
		}
		if !p.GeoIRatioHolds(1e-9) {
			t.Fatalf("eps=%v: Geo-I bound violated", eps)
		}
	}
}

func TestPlanarLaplaceEstimateRecovers(t *testing.T) {
	dom := testDomain(t, 4)
	p, err := NewPlanarLaplace(dom, 6)
	if err != nil {
		t.Fatal(err)
	}
	truth := grid.NewHist(dom)
	truth.Set(geom.Cell{X: 0, Y: 0}, 20000)
	truth.Set(geom.Cell{X: 3, Y: 3}, 20000)
	est, err := p.EstimateHist(truth, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	want := truth.Clone().Normalize()
	tv, err := grid.TotalVariation(est, want)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 0.15 {
		t.Fatalf("high-budget recovery TV %v", tv)
	}
}

func TestPlanarLaplaceErrors(t *testing.T) {
	if _, err := NewPlanarLaplace(testDomain(t, 3), 0); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := NewPlanarLaplace(testDomain(t, 3), math.NaN()); err == nil {
		t.Fatal("NaN eps accepted")
	}
	p, err := NewPlanarLaplace(testDomain(t, 3), 1)
	if err != nil {
		t.Fatal(err)
	}
	other := grid.NewHist(testDomain(t, 4))
	if _, err := p.EstimateHist(other, rng.New(1)); err == nil {
		t.Fatal("domain mismatch accepted")
	}
}

func TestCFOWorseThanDistanceAwareAtSpreadRecovery(t *testing.T) {
	// Integration sanity: on a two-cluster truth with a moderate budget,
	// the distance-blind CFO's noise floor spreads mass to far cells at
	// the same rate as near ones; planar Laplace keeps it local. Compare
	// the mass leaked to the far corner region.
	dom := testDomain(t, 5)
	truth := grid.NewHist(dom)
	truth.Set(geom.Cell{X: 0, Y: 0}, 20000)

	cfo, err := NewCFO(dom, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlanarLaplace(dom, 2)
	if err != nil {
		t.Fatal(err)
	}
	estC, err := cfo.EstimateHist(truth, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	estP, err := pl.EstimateHist(truth, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	farMass := func(h *grid.Hist2D) float64 {
		m := 0.0
		for y := 3; y < 5; y++ {
			for x := 3; x < 5; x++ {
				m += h.At(geom.Cell{X: x, Y: y})
			}
		}
		return m
	}
	if farMass(estP) >= farMass(estC) {
		t.Fatalf("planar Laplace leaked more far mass (%v) than CFO (%v)",
			farMass(estP), farMass(estC))
	}
}
