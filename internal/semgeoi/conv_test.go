package semgeoi

import (
	"math"
	"testing"

	"dpspatial/internal/em"
	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
	"dpspatial/internal/rng"
)

// TestChannelUsesConvRepresentation: the exponential kernel is
// displacement-invariant, so every square grid runs on the
// convolutional channel.
func TestChannelUsesConvRepresentation(t *testing.T) {
	for _, d := range []int{2, 5, 8} {
		m, err := New(testDomain(t, d), 1.5)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := m.Linear().(*fo.ConvChannel); !ok {
			t.Errorf("d=%d: channel is %T, want *fo.ConvChannel", d, m.Linear())
		}
	}
}

// TestConvRowsBitIdenticalToDense: Row (and hence Perturb and the alias
// samplers, i.e. every report stream) must reproduce the dense
// construction bit for bit.
func TestConvRowsBitIdenticalToDense(t *testing.T) {
	m, err := New(testDomain(t, 7), 2.0)
	if err != nil {
		t.Fatal(err)
	}
	lin := m.Linear()
	if _, ok := lin.(*fo.ConvChannel); !ok {
		t.Fatalf("channel is %T, want *fo.ConvChannel", lin)
	}
	dense := m.Channel()
	for i := 0; i < m.NumInputs(); i++ {
		dr := dense.Row(i)
		cr := lin.Row(i)
		for j := range dr {
			if dr[j] != cr[j] {
				t.Fatalf("row %d entry %d differs in bits", i, j)
			}
		}
	}
}

// definitionalRow is channel row i straight from the mechanism's
// definition: exp(−ε'·dis/2) to every cell centre, divided by the row
// sum accumulated in row-major order.
func definitionalRow(dom grid.Domain, epsGeo float64, i int) []float64 {
	vi := dom.CellAt(i)
	row := make([]float64, dom.NumCells())
	sum := 0.0
	for j := range row {
		w := math.Exp(-epsGeo * vi.CenterDist(dom.CellAt(j)) / 2)
		row[j] = w
		sum += w
	}
	for j := range row {
		row[j] /= sum
	}
	return row
}

// TestConvRowsMatchDefinition: every row of the convolutional channel
// (hence every alias table and report stream) reproduces the
// definitional row bit for bit, across grid sizes and budgets.
func TestConvRowsMatchDefinition(t *testing.T) {
	for _, d := range []int{1, 2, 7, 15} {
		dom := testDomain(t, d)
		for _, eps := range []float64{0.4, 1.3, 5} {
			m, err := New(dom, eps)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < m.NumInputs(); i++ {
				got, want := m.Linear().Row(i), definitionalRow(dom, eps, i)
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("d=%d ε=%v row %d entry %d: conv %v, definition %v", d, eps, i, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestConvEstimateMatchesDenseDecode: the FFT decode must agree with the
// exact dense decode to ≤ 1e-9.
func TestConvEstimateMatchesDenseDecode(t *testing.T) {
	m, err := New(testDomain(t, 9), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(88)
	counts := make([]float64, m.NumOutputs())
	for j := range counts {
		counts[j] = float64(r.Intn(40))
	}
	counts[0] = 1 // ensure nonzero total regardless of draws

	got, err := m.Estimate(counts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := em.Estimate(m.Channel(), counts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > 1e-9 {
			t.Fatalf("estimate differs from dense decode by %g at %d", d, i)
		}
	}
}
