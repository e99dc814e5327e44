package fo

import (
	"math"
	"math/rand"
	"testing"

	"dpspatial/internal/rng"
)

// testKernel is the SEM-Geo-I-shaped displacement kernel used throughout
// these tests: exp(-ε·‖t‖/2).
func testKernel(d int, eps float64) []float64 {
	return DisplacementKernel(d, func(dx, dy int) float64 {
		return math.Exp(-eps * math.Hypot(float64(dx), float64(dy)) / 2)
	})
}

// denseFromKernel builds the exact dense channel the legacy construction
// sites produce: row i = kern(c_j − c_i) normalised by the row-major sum.
func denseFromKernel(d int, kern []float64) *Channel {
	w := 2*d - 1
	n := d * d
	ch := NewChannel(n, n)
	for i := 0; i < n; i++ {
		xi, yi := i%d, i/d
		row := ch.Row(i)
		sum := 0.0
		for j := 0; j < n; j++ {
			xj, yj := j%d, j/d
			v := kern[(yj-yi+d-1)*w+(xj-xi+d-1)]
			row[j] = v
			sum += v
		}
		for j := range row {
			row[j] /= sum
		}
	}
	return ch
}

func maxAbsDev(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func randomDist(rng *rand.Rand, n int) []float64 {
	p := make([]float64, n)
	sum := 0.0
	for i := range p {
		p[i] = rng.Float64()
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// TestConvChannelMatchesDense is the core property test: Forward,
// Backward and Row agree with the exact dense channel to ≤ 1e-9 across
// grid sizes, including odd sides (and hence non-power-of-two circulant
// embeddings) and all border cells.
func TestConvChannelMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 11, 16} {
		n := d * d
		kern := testKernel(d, 1.3)
		dense := denseFromKernel(d, kern)
		conv, err := NewConvChannel(d, kern)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if conv.NumInputs() != n || conv.NumOutputs() != n {
			t.Fatalf("d=%d: conv channel is %d×%d", d, conv.NumInputs(), conv.NumOutputs())
		}

		// Row: bit-identical (same addends in the same order).
		for i := 0; i < n; i++ {
			dr := dense.Row(i)
			cr := conv.Row(i)
			for j := range dr {
				if dr[j] != cr[j] {
					t.Fatalf("d=%d: row %d entry %d differs in bits: dense %v conv %v", d, i, j, dr[j], cr[j])
				}
			}
		}

		p := randomDist(rng, n)
		w := make([]float64, n)
		for j := range w {
			w[j] = rng.Float64()
		}

		wantF := make([]float64, n)
		gotF := make([]float64, n)
		dense.Forward(p, wantF)
		conv.Forward(p, gotF)
		if dev := maxAbsDev(gotF, wantF); dev > 1e-9 {
			t.Errorf("d=%d: Forward deviates by %g", d, dev)
		}

		wantB := make([]float64, n)
		gotB := make([]float64, n)
		dense.Backward(w, wantB)
		conv.Backward(w, gotB)
		if dev := maxAbsDev(gotB, wantB); dev > 1e-9 {
			t.Errorf("d=%d: Backward deviates by %g", d, dev)
		}
	}
}

func TestConvChannelDenseMaterialisation(t *testing.T) {
	d := 6
	kern := testKernel(d, 2.0)
	conv, err := NewConvChannel(d, kern)
	if err != nil {
		t.Fatal(err)
	}
	want := denseFromKernel(d, kern)
	got := conv.Dense()
	for i := 0; i < conv.NumInputs(); i++ {
		wr, gr := want.Row(i), got.Row(i)
		for j := range wr {
			if wr[j] != gr[j] {
				t.Fatalf("Dense() row %d entry %d differs in bits", i, j)
			}
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("materialised dense channel invalid: %v", err)
	}
	if dr, cr := want.MaxRatio(), conv.MaxRatio(); dr != cr {
		t.Errorf("MaxRatio: dense %v conv %v", dr, cr)
	}
}

func TestConvChannelSamplersMatchDense(t *testing.T) {
	d := 4
	kern := testKernel(d, 1.7)
	conv, err := NewConvChannel(d, kern)
	if err != nil {
		t.Fatal(err)
	}
	dense := denseFromKernel(d, kern)
	ds, err := dense.Samplers()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := conv.Samplers()
	if err != nil {
		t.Fatal(err)
	}
	// Identical tables draw identically from identical streams.
	r1 := rng.New(123)
	r2 := rng.New(123)
	for i := range ds {
		for trial := 0; trial < 64; trial++ {
			if a, b := ds[i].Draw(r1), cs[i].Draw(r2); a != b {
				t.Fatalf("row %d: sampler draw %d differs (%d vs %d)", i, trial, a, b)
			}
		}
	}
}

func TestConvChannelConcurrentSweeps(t *testing.T) {
	// Shared channels serve concurrent decodes at the collector tier;
	// concurrent sweeps must be race-free and bit-reproducible.
	rng := rand.New(rand.NewSource(31))
	d := 8
	n := d * d
	conv, err := NewConvChannel(d, testKernel(d, 1.2))
	if err != nil {
		t.Fatal(err)
	}
	p := randomDist(rng, n)
	want := make([]float64, n)
	conv.Forward(p, want)
	const workers = 8
	results := make([][]float64, workers)
	done := make(chan int, workers)
	for g := 0; g < workers; g++ {
		g := g
		go func() {
			out := make([]float64, n)
			for iter := 0; iter < 50; iter++ {
				conv.Forward(p, out)
			}
			results[g] = out
			done <- g
		}()
	}
	for g := 0; g < workers; g++ {
		<-done
	}
	for g, out := range results {
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("worker %d: concurrent Forward differs at %d", g, i)
			}
		}
	}
}

func TestConvChannelRejectsBadInput(t *testing.T) {
	if _, err := NewConvChannel(0, nil); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := NewConvChannel(3, make([]float64, 24)); err == nil {
		t.Error("wrong kernel size accepted")
	}
	kern := testKernel(3, 1)
	bad := append([]float64(nil), kern...)
	bad[0] = -1
	if _, err := NewConvChannel(3, bad); err == nil {
		t.Error("negative kernel entry accepted")
	}
	if _, err := NewConvChannel(3, make([]float64, 25)); err == nil {
		t.Error("all-zero kernel accepted (normalisers are zero)")
	}
}
