package fo

import (
	"math"
	"testing"

	"dpspatial/internal/rng"
)

// randomUniformSparse builds a valid random uniform-plus-sparse channel:
// every row has a positive base and a random set of overrides,
// normalised so the row sums to one.
func randomUniformSparse(t *testing.T, r *rng.RNG, in, out int) *UniformSparse {
	t.Helper()
	b := NewUniformSparseBuilder(in, out)
	for i := 0; i < in; i++ {
		nnz := r.Intn(out/2 + 1)
		cols := r.Perm(out)[:nnz]
		w0 := 0.1 + r.Float64()
		raw := make([]float64, nnz)
		total := w0 * float64(out-nnz)
		for k := range raw {
			raw[k] = r.Float64() * 3
			total += raw[k]
		}
		idx := make([]int, nnz)
		val := make([]float64, nnz)
		for k, c := range cols {
			idx[k] = c
			val[k] = raw[k] / total
		}
		b.Row(w0/total, idx, val)
	}
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestUniformSparseMatchesDense(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 20; trial++ {
		in, out := 2+r.Intn(30), 2+r.Intn(40)
		u := randomUniformSparse(t, r, in, out)
		dense := u.Dense()

		if u.NumInputs() != dense.In || u.NumOutputs() != dense.Out {
			t.Fatalf("dimensions differ: %dx%d vs %dx%d", u.NumInputs(), u.NumOutputs(), dense.In, dense.Out)
		}
		// Rows materialise bit-identically.
		for i := 0; i < in; i++ {
			got, want := u.Row(i), dense.Row(i)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("row %d col %d: %v != %v", i, j, got[j], want[j])
				}
			}
		}
		if err := u.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := dense.Validate(); err != nil {
			t.Fatal(err)
		}

		// Forward and Backward agree with the dense sweeps to float
		// accumulation error.
		p := make([]float64, in)
		for i := range p {
			p[i] = r.Float64()
		}
		w := make([]float64, out)
		for j := range w {
			w[j] = r.Float64() * 5
		}
		fwdU, fwdD := make([]float64, out), make([]float64, out)
		u.Forward(p, fwdU)
		dense.Forward(p, fwdD)
		if d := maxAbsDiff(fwdU, fwdD); d > 1e-12 {
			t.Fatalf("Forward diverges by %v", d)
		}
		bwdU, bwdD := make([]float64, in), make([]float64, in)
		u.Backward(w, bwdU)
		dense.Backward(w, bwdD)
		if d := maxAbsDiff(bwdU, bwdD); d > 1e-12 {
			t.Fatalf("Backward diverges by %v", d)
		}

		// MaxRatio matches the dense computation exactly (same extrema).
		if got, want := u.MaxRatio(), dense.MaxRatio(); got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
			t.Fatalf("MaxRatio %v != dense %v", got, want)
		}
	}
}

func TestCompactRowRoundTrips(t *testing.T) {
	// CompactRow must reproduce arbitrary dense rows bit for bit,
	// whatever value happens to be modal.
	rows := [][]float64{
		{0.25, 0.25, 0.25, 0.25},
		{0.5, 0.125, 0.125, 0.25},
		{0, 0, 0.5, 0.5},
		{1, 0, 0, 0},
	}
	b := NewUniformSparseBuilder(len(rows), 4)
	for _, row := range rows {
		b.CompactRow(row)
	}
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range rows {
		got := u.Row(i)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("row %d col %d: %v != %v", i, j, got[j], want[j])
			}
		}
	}
	// The all-equal row must compact to zero overrides.
	if u.rowStart[1] != u.rowStart[0] {
		t.Fatalf("uniform row stored %d overrides", u.rowStart[1]-u.rowStart[0])
	}
}

func TestUniformSparseBuilderRejectsBadRows(t *testing.T) {
	b := NewUniformSparseBuilder(2, 3)
	b.Row(0.2, []int{0, 0}, []float64{0.3, 0.3})
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate override index accepted")
	}
	b = NewUniformSparseBuilder(2, 3)
	b.Row(0.2, []int{5}, []float64{0.3})
	if _, err := b.Build(); err == nil {
		t.Fatal("out-of-range override index accepted")
	}
	b = NewUniformSparseBuilder(2, 3)
	b.Row(1.0/3, nil, nil)
	if _, err := b.Build(); err == nil {
		t.Fatal("missing rows accepted")
	}
	b = NewUniformSparseBuilder(1, 3)
	b.Row(0.2, []int{1}, []float64{0.3, 0.4})
	if _, err := b.Build(); err == nil {
		t.Fatal("mismatched idx/val lengths accepted")
	}
}

func TestUniformSparseValidateCatchesBadDistributions(t *testing.T) {
	b := NewUniformSparseBuilder(1, 4)
	b.Row(0.5, nil, nil) // sums to 2
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Validate(); err == nil {
		t.Fatal("non-stochastic row accepted")
	}
	b = NewUniformSparseBuilder(1, 4)
	b.Row(0.5, []int{0, 1}, []float64{-0.25, 0.75}) // negative entry, sums to 1.5... adjust
	u, err = b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Validate(); err == nil {
		t.Fatal("negative entry accepted")
	}
}

func TestUniformSparseSamplersMatchDense(t *testing.T) {
	r := rng.New(31)
	u := randomUniformSparse(t, r, 12, 9)
	dense := u.Dense()
	sparseTabs, err := u.Samplers()
	if err != nil {
		t.Fatal(err)
	}
	denseTabs, err := dense.Samplers()
	if err != nil {
		t.Fatal(err)
	}
	// Identical rows must yield identical draw sequences.
	for i := range sparseTabs {
		r1, r2 := rng.New(uint64(100+i)), rng.New(uint64(100+i))
		for k := 0; k < 200; k++ {
			if a, b := sparseTabs[i].Draw(r1), denseTabs[i].Draw(r2); a != b {
				t.Fatalf("row %d draw %d: %d != %d", i, k, a, b)
			}
		}
	}
}

func TestTwoValueMatchesDenseGRR(t *testing.T) {
	g, err := NewGRR(7, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	tv := g.Linear()
	dense := g.Channel()
	for i := 0; i < 7; i++ {
		got, want := tv.Row(i), dense.Row(i)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("row %d col %d: %v != %v", i, j, got[j], want[j])
			}
		}
	}
	if err := tv.Validate(); err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	p := make([]float64, 7)
	w := make([]float64, 7)
	for i := range p {
		p[i] = r.Float64()
		w[i] = r.Float64() * 2
	}
	fwdT, fwdD := make([]float64, 7), make([]float64, 7)
	tv.Forward(p, fwdT)
	dense.Forward(p, fwdD)
	if d := maxAbsDiff(fwdT, fwdD); d > 1e-12 {
		t.Fatalf("Forward diverges by %v", d)
	}
	bwdT, bwdD := make([]float64, 7), make([]float64, 7)
	tv.Backward(w, bwdT)
	dense.Backward(w, bwdD)
	if d := maxAbsDiff(bwdT, bwdD); d > 1e-12 {
		t.Fatalf("Backward diverges by %v", d)
	}
	// Closed-form ratio p/q equals the dense scan.
	if got, want := tv.MaxRatio(), dense.MaxRatio(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MaxRatio %v != dense %v", got, want)
	}
}

func TestTwoValueConstruction(t *testing.T) {
	if _, err := NewTwoValue(0, 1, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewTwoValue(4, 0.5, 0.5); err == nil {
		t.Fatal("non-stochastic row accepted")
	}
	if _, err := NewTwoValue(3, -0.5, 0.75); err == nil {
		t.Fatal("negative probability accepted")
	}
	tv, err := NewTwoValue(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tv.MaxRatio() != 1 {
		t.Fatalf("k=1 ratio %v", tv.MaxRatio())
	}
}
