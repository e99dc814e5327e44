package sam

import (
	"math"
	"testing"

	"dpspatial/internal/fo"
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

func TestDAMProbabilitiesClosedForm(t *testing.T) {
	for _, eps := range []float64{0.7, 2.1, 3.5} {
		for _, b := range []float64{0.1, 0.5, 2} {
			p, q, err := DAMProbabilities(eps, b)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(p/q-math.Exp(eps)) > 1e-9 {
				t.Fatalf("p/q = %v, want e^eps = %v", p/q, math.Exp(eps))
			}
			// Total mass over the continuous output domain must be 1:
			// πb²·p + (4b+1)·q = 1 for the unit square.
			total := math.Pi*b*b*p + (4*b+1)*q
			if math.Abs(total-1) > 1e-9 {
				t.Fatalf("eps=%v b=%v: continuous mass %v", eps, b, total)
			}
		}
	}
}

func TestHUEMQClosedForm(t *testing.T) {
	// Verify ∫∫ W = 1 numerically: 2π∫₀^b q·e^{(1-r/b)ε}·r dr + (4b+1)q = 1.
	for _, eps := range []float64{0.7, 3.5} {
		for _, b := range []float64{0.3, 1.5} {
			q, err := HUEMQ(eps, b)
			if err != nil {
				t.Fatal(err)
			}
			const steps = 200000
			integral := 0.0
			for i := 0; i < steps; i++ {
				r := (float64(i) + 0.5) / steps * b
				w, err := HUEMWave(eps, b, r)
				if err != nil {
					t.Fatal(err)
				}
				integral += 2 * math.Pi * r * w * (b / steps)
			}
			total := integral + (4*b+1)*q
			if math.Abs(total-1) > 1e-3 {
				t.Fatalf("eps=%v b=%v: HUEM mass %v", eps, b, total)
			}
		}
	}
}

func TestHUEMWaveEndpoints(t *testing.T) {
	eps, b := 2.0, 1.5
	q, err := HUEMQ(eps, b)
	if err != nil {
		t.Fatal(err)
	}
	w0, err := HUEMWave(eps, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w0-q*math.Exp(eps)) > 1e-12 {
		t.Fatalf("W(0) = %v, want q·e^ε = %v", w0, q*math.Exp(eps))
	}
	wb, err := HUEMWave(eps, b, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wb-q) > 1e-12 {
		t.Fatalf("W(b) = %v, want q = %v", wb, q)
	}
	wOut, err := HUEMWave(eps, b, 2*b)
	if err != nil {
		t.Fatal(err)
	}
	if wOut != q {
		t.Fatalf("W(2b) = %v, want q", wOut)
	}
	if _, err := HUEMWave(eps, b, -1); err == nil {
		t.Fatal("negative distance accepted")
	}
}

func TestOptimalBLimits(t *testing.T) {
	// ε→0 limit: (2+√(4+π))/π; ε→∞ limit: 0.
	b, err := OptimalB(1e-9, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := (2 + math.Sqrt(4+math.Pi)) / math.Pi
	if math.Abs(b-want) > 1e-3 {
		t.Fatalf("small-eps b = %v, want %v", b, want)
	}
	b, err = OptimalB(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b > 0.01 {
		t.Fatalf("large-eps b = %v, want ≈0", b)
	}
}

func TestOptimalBScalesWithL(t *testing.T) {
	b1, err := OptimalB(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	b10, err := OptimalB(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b10-10*b1) > 1e-9 {
		t.Fatalf("b(L=10)=%v, want 10·b(L=1)=%v", b10, 10*b1)
	}
}

func TestOptimalBMatchesPaperDefault(t *testing.T) {
	// Paper: with d=15 and ε=3.5 the optimal discrete radius b̌ ≈ 3.
	bh, err := BHat(3.5, 15)
	if err != nil {
		t.Fatal(err)
	}
	if bh != 3 {
		t.Fatalf("BHat(3.5, 15) = %d, want 3", bh)
	}
}

func TestOptimalBMaximisesMutualInfoBound(t *testing.T) {
	for _, eps := range []float64{0.7, 2.1, 3.5, 5} {
		for _, L := range []float64{1, 15} {
			bStar, err := OptimalB(eps, L)
			if err != nil {
				t.Fatal(err)
			}
			gStar, err := MutualInfoBound(eps, bStar, L)
			if err != nil {
				t.Fatal(err)
			}
			for _, scale := range []float64{0.5, 0.8, 1.2, 2} {
				g, err := MutualInfoBound(eps, bStar*scale, L)
				if err != nil {
					t.Fatal(err)
				}
				if g > gStar+1e-9 {
					t.Fatalf("eps=%v L=%v: g(%v·b̌)=%v exceeds g(b̌)=%v",
						eps, L, scale, g, gStar)
				}
			}
		}
	}
}

func TestOptimalBErrors(t *testing.T) {
	if _, err := OptimalB(0, 1); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := OptimalB(1, 0); err == nil {
		t.Fatal("L=0 accepted")
	}
	if _, err := BHat(1, 0); err == nil {
		t.Fatal("d=0 accepted")
	}
}

func allMechanisms(t *testing.T, dom grid.Domain, eps float64, opts ...Option) []*Mechanism {
	t.Helper()
	dam, err := NewDAM(dom, eps, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := NewDAMNS(dom, eps, opts...)
	if err != nil {
		t.Fatal(err)
	}
	huem, err := NewHUEM(dom, eps, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return []*Mechanism{dam, ns, huem}
}

func TestMechanismChannelsAreRowStochastic(t *testing.T) {
	for _, d := range []int{1, 3, 8} {
		dom := testDomain(t, d)
		for _, eps := range []float64{0.7, 3.5} {
			for _, m := range allMechanisms(t, dom, eps) {
				if err := m.Channel().Validate(); err != nil {
					t.Fatalf("%s d=%d eps=%v: %v", m.Name(), d, eps, err)
				}
			}
		}
	}
}

func TestMechanismsSatisfyLDP(t *testing.T) {
	// The central privacy claim (Theorem IV.1): every SAM channel's
	// worst-case likelihood ratio is at most e^ε, including shrunken
	// border cells.
	for _, d := range []int{2, 5, 10} {
		dom := testDomain(t, d)
		for _, eps := range []float64{0.7, 2.1, 3.5, 6} {
			for _, m := range allMechanisms(t, dom, eps) {
				ratio := m.Channel().MaxRatio()
				if ratio > math.Exp(eps)*(1+1e-9) {
					t.Fatalf("%s d=%d eps=%v: max ratio %v > e^ε=%v",
						m.Name(), d, eps, ratio, math.Exp(eps))
				}
			}
		}
	}
}

func TestDAMUsesFullBudgetAtCentre(t *testing.T) {
	dom := testDomain(t, 10)
	m, err := NewDAM(dom, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	ratio := m.Channel().MaxRatio()
	if ratio < math.Exp(3.5)*(1-1e-6) {
		t.Fatalf("DAM ratio %v loose vs e^ε=%v: wasted budget", ratio, math.Exp(3.5))
	}
}

func TestDAMPQRelationship(t *testing.T) {
	dom := testDomain(t, 10)
	m, err := NewDAM(dom, 2.8)
	if err != nil {
		t.Fatal(err)
	}
	p, q := m.PQ()
	if math.Abs(p/q-math.Exp(2.8)) > 1e-9 {
		t.Fatalf("p̂/q̂ = %v, want e^ε", p/q)
	}
	// Normalisation: S_H·p̂ + S_L·q̂ = 1 by construction; check via the
	// channel rows instead of re-deriving.
	row := m.Channel().Row(0)
	sum := 0.0
	for _, v := range row {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("row mass %v", sum)
	}
}

func TestOutputDomainSizeMatchesTheoremVI2(t *testing.T) {
	// Theorem VI.2: the pure-low area for any input cell is
	// d² + 4b̂d − 4b̂ − 1, so |D̃| = that + |footprint|.
	for _, d := range []int{1, 2, 5, 9} {
		dom := testDomain(t, d)
		for _, bh := range []int{1, 2, 3} {
			m, err := NewDAM(dom, 2, WithBHat(bh))
			if err != nil {
				t.Fatal(err)
			}
			fpSize := len(geom.DiskFootprint(float64(bh)))
			wantLow := geom.PureLowAreaClosedForm(d, bh)
			if got := m.NumOutputs() - fpSize; got != wantLow {
				t.Fatalf("d=%d b̂=%d: pure-low cells %d, Theorem VI.2 says %d",
					d, bh, got, wantLow)
			}
		}
	}
}

func TestMechanismRowsAreTranslates(t *testing.T) {
	// Every input cell's output distribution is the same wave profile
	// translated — the defining property of a SAM.
	dom := testDomain(t, 6)
	m, err := NewDAM(dom, 3, WithBHat(2))
	if err != nil {
		t.Fatal(err)
	}
	ch := m.Channel()
	out := m.OutputCells()
	probAt := func(in int, c geom.Cell) float64 {
		for j, oc := range out {
			if oc == c {
				return ch.At(in, j)
			}
		}
		return -1
	}
	a := dom.Index(geom.Cell{X: 1, Y: 1})
	b := dom.Index(geom.Cell{X: 4, Y: 3})
	for _, off := range []geom.Cell{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 2}, {X: -2, Y: 0}, {X: 2, Y: 2}} {
		pa := probAt(a, geom.Cell{X: 1 + off.X, Y: 1 + off.Y})
		pb := probAt(b, geom.Cell{X: 4 + off.X, Y: 3 + off.Y})
		if math.Abs(pa-pb) > 1e-12 {
			t.Fatalf("offset %v: prob %v at input a but %v at input b", off, pa, pb)
		}
	}
}

func TestHUEMWeightsDecreaseWithDistance(t *testing.T) {
	dom := testDomain(t, 8)
	m, err := NewHUEM(dom, 3, WithBHat(3))
	if err != nil {
		t.Fatal(err)
	}
	// Probability of reporting the true cell must exceed a ring-2 cell,
	// which must exceed a ring-3 cell, which exceeds q̂.
	in := dom.Index(geom.Cell{X: 4, Y: 4})
	ch := m.Channel()
	idx := func(c geom.Cell) int {
		for j, oc := range m.OutputCells() {
			if oc == c {
				return j
			}
		}
		t.Fatalf("cell %v not in output domain", c)
		return -1
	}
	p0 := ch.At(in, idx(geom.Cell{X: 4, Y: 4}))
	p2 := ch.At(in, idx(geom.Cell{X: 6, Y: 4}))
	p3 := ch.At(in, idx(geom.Cell{X: 7, Y: 4}))
	_, q := m.PQ()
	if !(p0 > p2 && p2 > p3 && p3 > q) {
		t.Fatalf("HUEM weights not decreasing: %v, %v, %v vs q %v", p0, p2, p3, q)
	}
}

func TestDAMNSSubsetOfDAMFootprint(t *testing.T) {
	dom := testDomain(t, 6)
	dam, err := NewDAM(dom, 2, WithBHat(2))
	if err != nil {
		t.Fatal(err)
	}
	ns, err := NewDAMNS(dom, 2, WithBHat(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(ns.offsets) > len(dam.offsets) {
		t.Fatalf("NS footprint (%d) larger than shrunken (%d)", len(ns.offsets), len(dam.offsets))
	}
}

func TestPerturbMatchesChannel(t *testing.T) {
	dom := testDomain(t, 4)
	m, err := NewDAM(dom, 2, WithBHat(1))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	in := dom.Index(geom.Cell{X: 2, Y: 2})
	const trials = 100000
	counts := make([]float64, m.NumOutputs())
	for i := 0; i < trials; i++ {
		counts[m.Perturb(in, r)]++
	}
	for j := range counts {
		want := m.Channel().At(in, j)
		got := counts[j] / trials
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("output %d: frequency %v, want %v", j, got, want)
		}
	}
}

func TestCollectConservesUsers(t *testing.T) {
	dom := testDomain(t, 5)
	m, err := NewDAM(dom, 2)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, m.NumInputs())
	truth[7] = 500
	truth[13] = 300
	agg := m.NewAggregate()
	if err := fo.Accumulate(m, agg, truth, rng.New(3)); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, c := range agg.Planes[0] {
		total += c
	}
	if total != 800 {
		t.Fatalf("collected %v reports, want 800", total)
	}
}

func TestCollectRejectsInvalidCounts(t *testing.T) {
	dom := testDomain(t, 3)
	m, err := NewDAM(dom, 2)
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]float64, m.NumInputs())
	bad[0] = -1
	if err := fo.Accumulate(m, m.NewAggregate(), bad, rng.New(1)); err == nil {
		t.Fatal("negative count accepted")
	}
	bad[0] = 1.5
	if err := fo.Accumulate(m, m.NewAggregate(), bad, rng.New(1)); err == nil {
		t.Fatal("fractional count accepted")
	}
	if err := fo.Accumulate(m, m.NewAggregate(), make([]float64, 2), rng.New(1)); err == nil {
		t.Fatal("wrong length accepted")
	}
}

func TestEstimateHistRecoversConcentratedDistribution(t *testing.T) {
	// With a generous budget, the full pipeline must recover a
	// concentrated distribution closely.
	dom := testDomain(t, 5)
	m, err := NewDAM(dom, 6)
	if err != nil {
		t.Fatal(err)
	}
	truth := grid.NewHist(dom)
	truth.Set(geom.Cell{X: 2, Y: 2}, 30000)
	truth.Set(geom.Cell{X: 2, Y: 3}, 20000)
	truth.Set(geom.Cell{X: 3, Y: 2}, 10000)
	est, err := m.EstimateHist(truth, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	want := truth.Clone().Normalize()
	tv, err := grid.TotalVariation(est, want)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 0.1 {
		t.Fatalf("high-budget recovery TV = %v", tv)
	}
}

func TestEstimateHistDomainMismatch(t *testing.T) {
	m, err := NewDAM(testDomain(t, 4), 2)
	if err != nil {
		t.Fatal(err)
	}
	truth := grid.NewHist(testDomain(t, 5))
	if _, err := m.EstimateHist(truth, rng.New(1)); err == nil {
		t.Fatal("domain mismatch accepted")
	}
}

func TestMechanismConstructionErrors(t *testing.T) {
	dom := testDomain(t, 3)
	if _, err := NewDAM(dom, 0); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := NewDAM(dom, math.NaN()); err == nil {
		t.Fatal("NaN eps accepted")
	}
	if _, err := NewDAM(dom, 1, WithBHat(-1)); err == nil {
		t.Fatal("negative b̂ accepted")
	}
}

func TestBHatZeroDegeneratesToRandomizedResponse(t *testing.T) {
	// b̂=0: footprint is just the true cell; DAM becomes GRR over the
	// grid with output domain = input domain.
	dom := testDomain(t, 4)
	m, err := NewDAM(dom, 2, WithBHat(0))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumOutputs() != m.NumInputs() {
		t.Fatalf("b̂=0 output domain %d != input %d", m.NumOutputs(), m.NumInputs())
	}
	p, q := m.PQ()
	k := float64(m.NumInputs())
	wantP := math.Exp(2) / (math.Exp(2) + k - 1)
	if math.Abs(p-wantP) > 1e-9 {
		t.Fatalf("b̂=0 p̂ = %v, want GRR p = %v", p, wantP)
	}
	if math.Abs(p/q-math.Exp(2)) > 1e-9 {
		t.Fatalf("p̂/q̂ = %v", p/q)
	}
}

func TestSmoothingOptionChangesEstimate(t *testing.T) {
	dom := testDomain(t, 5)
	plain, err := NewDAM(dom, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	smooth, err := NewDAM(dom, 1.5, WithSmoothing())
	if err != nil {
		t.Fatal(err)
	}
	truth := grid.NewHist(dom)
	truth.Set(geom.Cell{X: 2, Y: 2}, 5000)
	agg := plain.NewAggregate()
	if err := fo.Accumulate(plain, agg, truth.Mass, rng.New(11)); err != nil {
		t.Fatal(err)
	}
	a, err := plain.Estimate(agg.Planes[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := smooth.Estimate(agg.Planes[0])
	if err != nil {
		t.Fatal(err)
	}
	diff := 0.0
	for i := range a {
		diff += math.Abs(a[i] - b[i])
	}
	if diff < 1e-6 {
		t.Fatal("smoothing option has no effect")
	}
}
