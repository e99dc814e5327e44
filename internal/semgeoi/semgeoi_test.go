package semgeoi

import (
	"math"
	"runtime"
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

func TestChannelRowStochastic(t *testing.T) {
	for _, d := range []int{1, 3, 6} {
		for _, eps := range []float64{0.3, 1, 4} {
			m, err := New(testDomain(t, d), eps)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Channel().Validate(); err != nil {
				t.Fatalf("d=%d eps=%v: %v", d, eps, err)
			}
		}
	}
}

func TestGeoIGuarantee(t *testing.T) {
	for _, d := range []int{3, 5} {
		for _, eps := range []float64{0.5, 2} {
			m, err := New(testDomain(t, d), eps)
			if err != nil {
				t.Fatal(err)
			}
			if !m.GeoIRatioHolds(1e-9) {
				t.Fatalf("d=%d eps=%v: Geo-I ratio violated", d, eps)
			}
		}
	}
}

func TestCloserCellsMoreLikely(t *testing.T) {
	dom := testDomain(t, 7)
	m, err := New(dom, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	in := dom.Index(geom.Cell{X: 3, Y: 3})
	pSelf := m.Channel().At(in, in)
	pNear := m.Channel().At(in, dom.Index(geom.Cell{X: 4, Y: 3}))
	pFar := m.Channel().At(in, dom.Index(geom.Cell{X: 6, Y: 6}))
	if !(pSelf > pNear && pNear > pFar) {
		t.Fatalf("probabilities not distance-ordered: %v, %v, %v", pSelf, pNear, pFar)
	}
}

func TestDefaultSubsetSizeFollowsComplexityRule(t *testing.T) {
	dom := testDomain(t, 5) // n = 25
	m, err := New(dom, 1)   // n/e ≈ 9.2
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Max(1, 25/math.E))
	if m.SubsetSize() != want {
		t.Fatalf("default k = %d, want %d", m.SubsetSize(), want)
	}
	// Large ε collapses the subset to a single cell.
	m, err = New(dom, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m.SubsetSize() != 1 {
		t.Fatalf("large-eps k = %d, want 1", m.SubsetSize())
	}
}

func TestSubsetCellsInsideGrid(t *testing.T) {
	dom := testDomain(t, 4)
	m, err := New(dom, 0.5) // k = ⌊16/e^0.5⌋ = 9
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < m.NumOutputs(); c++ {
		if got := len(m.Subset(c)); got != m.SubsetSize() {
			t.Fatalf("subset of centre %d has %d cells, want %d", c, got, m.SubsetSize())
		}
		for _, cell := range m.Subset(c) {
			if !dom.Contains(cell) {
				t.Fatalf("subset of centre %d contains out-of-grid cell %v", c, cell)
			}
		}
	}
}

func TestBallOffsetsAreNearestCells(t *testing.T) {
	offs := ballOffsets(5)
	// The 5 nearest cells to the origin are the centre plus the 4 axis
	// neighbours.
	want := map[geom.Cell]bool{
		{X: 0, Y: 0}: true, {X: 1, Y: 0}: true, {X: -1, Y: 0}: true, {X: 0, Y: 1}: true, {X: 0, Y: -1}: true,
	}
	if len(offs) != 5 {
		t.Fatalf("got %d offsets", len(offs))
	}
	for _, o := range offs {
		if !want[o] {
			t.Fatalf("unexpected ball offset %v", o)
		}
	}
}

func TestPerturbMatchesChannel(t *testing.T) {
	dom := testDomain(t, 4)
	m, err := New(dom, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	in := dom.Index(geom.Cell{X: 1, Y: 2})
	const trials = 100000
	counts := make([]float64, m.NumOutputs())
	for i := 0; i < trials; i++ {
		rep, err := m.Report(in, r)
		if err != nil {
			t.Fatal(err)
		}
		counts[rep.Planes[0][0]]++
	}
	for j := range counts {
		want := m.Channel().At(in, j)
		if math.Abs(counts[j]/trials-want) > 0.01 {
			t.Fatalf("output %d freq %v, want %v", j, counts[j]/trials, want)
		}
	}
}

func TestEstimateHistRecoversWithLargeBudget(t *testing.T) {
	dom := testDomain(t, 5)
	m, err := New(dom, 8)
	if err != nil {
		t.Fatal(err)
	}
	truth := grid.NewHist(dom)
	truth.Set(geom.Cell{X: 1, Y: 1}, 20000)
	truth.Set(geom.Cell{X: 3, Y: 3}, 20000)
	est, err := m.EstimateHist(truth, rng.New(3))
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

func TestErrors(t *testing.T) {
	dom := testDomain(t, 3)
	if _, err := New(dom, 0); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := New(dom, math.NaN()); err == nil {
		t.Fatal("NaN eps accepted")
	}
	m, err := New(dom, 1)
	if err != nil {
		t.Fatal(err)
	}
	other := grid.NewHist(testDomain(t, 4))
	if _, err := m.EstimateHist(other, rng.New(1)); err == nil {
		t.Fatal("domain mismatch accepted")
	}
	bad := grid.NewHist(dom)
	bad.Mass[0] = 0.5
	if _, err := m.EstimateHist(bad, rng.New(1)); err == nil {
		t.Fatal("fractional count accepted")
	}
}

// TestCalibrateToDAMBits holds the calibrated budget ε' to recorded
// bits at the served grid side and beyond the digest tests' d ≤ 9: the
// ε' a SEM-Geo-I daemon calibrates names its scheme. The bits depend on
// float rounding, which the recorded values fix for amd64.
func TestCalibrateToDAMBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("bits were recorded on amd64; float rounding on %s may differ", runtime.GOARCH)
	}
	for _, c := range []struct {
		d    int
		eps  float64
		want uint64
	}{
		{15, 3.5, 0x3fea0d072633c5f6},
		{15, 1.5, 0x3fd28edfe0dddf68},
		{10, 3.5, 0x3ff39ad76d80dc63},
	} {
		got, err := CalibrateToDAM(c.d, c.eps)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != c.want {
			t.Errorf("d=%d ε=%v: ε' = %v (%#x), want %#x", c.d, c.eps, got, math.Float64bits(got), c.want)
		}
	}
}
