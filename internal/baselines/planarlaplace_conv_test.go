package baselines

import (
	"math"
	"testing"

	"dpspatial/internal/em"
	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
	"dpspatial/internal/rng"
)

// TestPlanarLaplaceUsesConvRepresentation: the Laplace kernel is
// displacement-invariant, so the mechanism runs on the convolutional
// channel.
func TestPlanarLaplaceUsesConvRepresentation(t *testing.T) {
	p, err := NewPlanarLaplace(testDomain(t, 6), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Linear().(*fo.ConvChannel); !ok {
		t.Errorf("channel is %T, want *fo.ConvChannel", p.Linear())
	}
}

// TestPlanarLaplaceChannelMemoized: two mechanisms on the same (grid, ε)
// share one channel build; a different ε gets its own.
func TestPlanarLaplaceChannelMemoized(t *testing.T) {
	dom := testDomain(t, 5)
	a, err := NewPlanarLaplace(dom, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlanarLaplace(dom, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if a.state != b.state {
		t.Error("same (grid, ε) did not share the memoized channel state")
	}
	sa, err := a.Samplers()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Samplers()
	if err != nil {
		t.Fatal(err)
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("memoized mechanisms built distinct sampler tables")
		}
	}
	c, err := NewPlanarLaplace(dom, 1.26)
	if err != nil {
		t.Fatal(err)
	}
	if c.state == a.state {
		t.Error("different ε shared a channel state")
	}
}

// plDefinitionalRow is channel row i straight from the mechanism's
// definition: exp(−ε·dis) to every cell centre, divided by the row sum
// accumulated in row-major order.
func plDefinitionalRow(dom grid.Domain, epsGeo float64, i int) []float64 {
	ci := dom.CellAt(i)
	row := make([]float64, dom.NumCells())
	sum := 0.0
	for j := range row {
		w := math.Exp(-epsGeo * ci.CenterDist(dom.CellAt(j)))
		row[j] = w
		sum += w
	}
	for j := range row {
		row[j] /= sum
	}
	return row
}

// TestPlanarLaplaceConvRowsMatchDefinition: every row of the
// convolutional channel reproduces the definitional row bit for bit,
// across grid sizes and budgets.
func TestPlanarLaplaceConvRowsMatchDefinition(t *testing.T) {
	for _, d := range []int{1, 2, 7, 15} {
		dom := testDomain(t, d)
		for _, eps := range []float64{0.4, 1.3, 5} {
			p, err := NewPlanarLaplace(dom, eps)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < p.NumInputs(); i++ {
				got, want := p.Linear().Row(i), plDefinitionalRow(dom, eps, i)
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("d=%d ε=%v row %d entry %d: conv %v, definition %v", d, eps, i, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestPlanarLaplaceConvDecodeMatchesDense: the FFT decode agrees with
// the exact dense decode to ≤ 1e-9, and the conv rows are bit-identical
// to the dense matrix.
func TestPlanarLaplaceConvDecodeMatchesDense(t *testing.T) {
	p, err := NewPlanarLaplace(testDomain(t, 7), 1.1)
	if err != nil {
		t.Fatal(err)
	}
	lin := p.Linear()
	dense := p.Channel()
	for i := 0; i < p.NumInputs(); i++ {
		dr := dense.Row(i)
		cr := lin.Row(i)
		for j := range dr {
			if dr[j] != cr[j] {
				t.Fatalf("row %d entry %d differs in bits", i, j)
			}
		}
	}
	r := rng.New(55)
	counts := make([]float64, p.NumInputs())
	for j := range counts {
		counts[j] = float64(r.Intn(25))
	}
	counts[3] = 7
	got, err := em.Estimate(lin, counts, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := em.Estimate(dense, counts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > 1e-9 {
			t.Fatalf("decode differs from dense by %g at %d", d, i)
		}
	}
}
