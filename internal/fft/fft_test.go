package fft

import (
	"math"
	"math/rand"
	"testing"
)

// naiveDFT computes the unscaled forward DFT by the O(n²) definition.
func naiveDFT(re, im []float64) ([]float64, []float64) {
	n := len(re)
	outRe := make([]float64, n)
	outIm := make([]float64, n)
	for k := 0; k < n; k++ {
		var sr, si float64
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			c, s := math.Cos(ang), math.Sin(ang)
			sr += re[j]*c - im[j]*s
			si += re[j]*s + im[j]*c
		}
		outRe[k] = sr
		outIm[k] = si
	}
	return outRe, outIm
}

func maxAbs(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestPlanMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const lanes = 3
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatalf("NewPlan(%d): %v", n, err)
		}
		re := make([]float64, n*lanes)
		im := make([]float64, n*lanes)
		for i := range re {
			re[i] = rng.NormFloat64()
			im[i] = rng.NormFloat64()
		}
		var wantRe, wantIm []float64
		for s := 0; s < lanes; s++ {
			r, i := naiveDFT(re[s*n:(s+1)*n], im[s*n:(s+1)*n])
			wantRe, wantIm = append(wantRe, r...), append(wantIm, i...)
		}
		p.forwardSignals(re, im, lanes)
		if d := maxAbs(re, wantRe); d > 1e-10 {
			t.Errorf("n=%d: forward re deviates by %g", n, d)
		}
		if d := maxAbs(im, wantIm); d > 1e-10 {
			t.Errorf("n=%d: forward im deviates by %g", n, d)
		}
	}
}

func TestPlanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const lanes = 2
	for _, n := range []int{1, 2, 8, 32, 256} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatalf("NewPlan(%d): %v", n, err)
		}
		re := make([]float64, n*lanes)
		im := make([]float64, n*lanes)
		for i := range re {
			re[i] = rng.NormFloat64()
			im[i] = rng.NormFloat64()
		}
		origRe := append([]float64(nil), re...)
		origIm := append([]float64(nil), im...)
		p.forwardSignals(re, im, lanes)
		p.Inverse(re, im, lanes)
		if d := maxAbs(re, origRe); d > 1e-12 {
			t.Errorf("n=%d: round-trip re deviates by %g", n, d)
		}
		if d := maxAbs(im, origIm); d > 1e-12 {
			t.Errorf("n=%d: round-trip im deviates by %g", n, d)
		}
	}
}

func TestPlanRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -4, 3, 12, 100} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan(%d) succeeded, want error", n)
		}
	}
}

func TestPlanDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, lanes := 64, 5
	p1, _ := NewPlan(n)
	p2, _ := NewPlan(n)
	re := make([]float64, n*lanes)
	im := make([]float64, n*lanes)
	for i := range re {
		re[i] = rng.NormFloat64()
		im[i] = rng.NormFloat64()
	}
	r1 := append([]float64(nil), re...)
	i1 := append([]float64(nil), im...)
	r2 := append([]float64(nil), re...)
	i2 := append([]float64(nil), im...)
	p1.forwardSignals(r1, i1, lanes)
	p2.forwardSignals(r2, i2, lanes)
	for i := range r1 {
		if r1[i] != r2[i] || i1[i] != i2[i] {
			t.Fatalf("two plans disagree bit-for-bit at %d", i)
		}
	}
}

// naiveConv computes the circular convolution or correlation directly.
func naiveConv(n int, src, kernel []float64, correlate bool) []float64 {
	out := make([]float64, n*n)
	for cy := 0; cy < n; cy++ {
		for cx := 0; cx < n; cx++ {
			var sum float64
			for sy := 0; sy < n; sy++ {
				for sx := 0; sx < n; sx++ {
					var ky, kx int
					if correlate {
						ky, kx = (sy-cy+n)%n, (sx-cx+n)%n
					} else {
						ky, kx = (cy-sy+n)%n, (cx-sx+n)%n
					}
					sum += src[sy*n+sx] * kernel[ky*n+kx]
				}
			}
			out[cy*n+cx] = sum
		}
	}
	return out
}

// embed returns the g×g grid zero-padded into the top-left corner of an
// n×n circulant.
func embed(g, n int, grid []float64) []float64 {
	out := make([]float64, n*n)
	for y := 0; y < g; y++ {
		copy(out[y*n:y*n+g], grid[y*g:(y+1)*g])
	}
	return out
}

// corner returns the top-left g×g block of an n×n array.
func corner(g, n int, full []float64) []float64 {
	out := make([]float64, g*g)
	for y := 0; y < g; y++ {
		copy(out[y*g:(y+1)*g], full[y*n:y*n+g])
	}
	return out
}

func TestRealConv2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, g := range []int{1, 2, 3, 4, 5, 8} {
		n := NextPow2(2*g - 1)
		for _, correlate := range []bool{false, true} {
			kernel := make([]float64, n*n)
			for i := range kernel {
				kernel[i] = rng.Float64()
			}
			src := make([]float64, g*g)
			for i := range src {
				src[i] = rng.Float64()
			}
			c, err := NewRealConv2D(g, kernel)
			if err != nil {
				t.Fatalf("NewRealConv2D(%d): %v", g, err)
			}
			want := corner(g, n, naiveConv(n, embed(g, n, src), kernel, correlate))
			got := make([]float64, g*g)
			c.Apply(src, got, c.NewScratch(), correlate)
			if d := maxAbs(got, want); d > 1e-10 {
				t.Errorf("g=%d correlate=%v: conv deviates by %g", g, correlate, d)
			}
		}
	}
}

func TestRealConv2DEvenKernel(t *testing.T) {
	// An even kernel (k(-t) = k(t) circularly) makes convolution equal
	// correlation; the convolver should detect it and still be exact.
	rng := rand.New(rand.NewSource(13))
	g := 8
	n := NextPow2(2*g - 1)
	kernel := make([]float64, n*n)
	for y := 0; y <= n/2; y++ {
		for x := 0; x <= n/2; x++ {
			v := rng.Float64()
			kernel[y*n+x] = v
			kernel[((n-y)%n)*n+(n-x)%n] = v
			kernel[y*n+(n-x)%n] = v
			kernel[((n-y)%n)*n+x] = v
		}
	}
	c, err := NewRealConv2D(g, kernel)
	if err != nil {
		t.Fatal(err)
	}
	if !c.even {
		t.Fatal("even kernel not detected")
	}
	src := make([]float64, g*g)
	for i := range src {
		src[i] = rng.Float64()
	}
	want := corner(g, n, naiveConv(n, embed(g, n, src), kernel, false))
	got := make([]float64, g*g)
	c.Apply(src, got, c.NewScratch(), false)
	if d := maxAbs(got, want); d > 1e-10 {
		t.Errorf("even-kernel conv deviates by %g", d)
	}
	// Correlation must give the same answer for an even kernel.
	got2 := make([]float64, g*g)
	c.Apply(src, got2, c.NewScratch(), true)
	for i := range got {
		if got[i] != got2[i] {
			t.Fatal("even-kernel conv and correlation differ")
		}
	}
}

func TestRealConv2DRowPruning(t *testing.T) {
	// A g×g grid fills only rows and columns [0, g) of the circulant:
	// Apply must read only src[:g*g], write only dst[:g*g], and match
	// the full transform of the zero-padded grid there. The sides share
	// one circulant (n = 16).
	rng := rand.New(rand.NewSource(17))
	for _, g := range []int{5, 6, 7, 8} {
		n := NextPow2(2*g - 1)
		kernel := make([]float64, n*n)
		for i := range kernel {
			kernel[i] = rng.Float64()
		}
		src := make([]float64, g*g+n)
		for i := range src {
			src[i] = rng.NormFloat64() // garbage beyond g*g must be ignored
		}
		want := corner(g, n, naiveConv(n, embed(g, n, src[:g*g]), kernel, false))
		c, err := NewRealConv2D(g, kernel)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, g*g+n)
		for i := g * g; i < len(got); i++ {
			got[i] = 42
		}
		c.Apply(src, got, c.NewScratch(), false)
		if d := maxAbs(got[:g*g], want); d > 1e-10 {
			t.Errorf("g=%d: pruned conv deviates by %g", g, d)
		}
		for i := g * g; i < len(got); i++ {
			if got[i] != 42 {
				t.Fatalf("g=%d: Apply wrote dst[%d] past the grid", g, i)
			}
		}
	}
}

func TestRealConv2DScratchReuse(t *testing.T) {
	// A scratch carries no state between calls: the second Apply with
	// the same input must reproduce the first bit-for-bit, even after a
	// different intervening workload.
	rng := rand.New(rand.NewSource(19))
	g := 4
	n := NextPow2(2*g - 1)
	kernel := make([]float64, n*n)
	for i := range kernel {
		kernel[i] = rng.Float64()
	}
	a := make([]float64, g*g)
	b := make([]float64, g*g)
	for i := range a {
		a[i] = rng.Float64()
		b[i] = rng.Float64()
	}
	c, err := NewRealConv2D(g, kernel)
	if err != nil {
		t.Fatal(err)
	}
	s := c.NewScratch()
	first := make([]float64, g*g)
	c.Apply(a, first, s, false)
	c.Apply(b, make([]float64, g*g), s, true)
	again := make([]float64, g*g)
	c.Apply(a, again, s, false)
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("scratch reuse changed output at %d", i)
		}
	}
}

// RefSides are the grid sides the bit-identity tests cover: every side
// up to 9, g = n/2 at g = 2, 8 and 16, the jump to n = 64 at g = 17, and
// the sides the mechanisms serve (15) and sweep (40).
var RefSides = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17, 20, 31, 33, 40}

// signedZeroGrids returns grids of side g that mix random values with
// +0 and −0 entries, and one grid of −0 only: a dropped x+0 (which turns
// −0 into +0) or a reordered add shows in their bits.
func signedZeroGrids(rng *rand.Rand, g int) [][]float64 {
	mixed := make([]float64, g*g)
	for i := range mixed {
		switch rng.Intn(4) {
		case 0:
			mixed[i] = 0
		case 1:
			mixed[i] = math.Copysign(0, -1)
		default:
			mixed[i] = rng.NormFloat64()
		}
	}
	dense := make([]float64, g*g)
	for i := range dense {
		dense[i] = rng.Float64()
	}
	negZero := make([]float64, g*g)
	for i := range negZero {
		negZero[i] = math.Copysign(0, -1)
	}
	return [][]float64{mixed, dense, negZero}
}

// testKernels returns an even kernel shaped like fo.ConvChannel's (a
// function of |dx|, |dy| on displacements up to g−1, zero elsewhere) and
// a non-even kernel filling the whole n×n circulant, with zero and −0
// entries.
func testKernels(rng *rand.Rand, g, n int) map[string][]float64 {
	even := make([]float64, n*n)
	vals := make([]float64, g*g)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	for dy := -(g - 1); dy <= g-1; dy++ {
		for dx := -(g - 1); dx <= g-1; dx++ {
			ady, adx := dy, dx
			if ady < 0 {
				ady = -ady
			}
			if adx < 0 {
				adx = -adx
			}
			even[((dy+n)%n)*n+(dx+n)%n] = vals[ady*g+adx]
		}
	}
	full := make([]float64, n*n)
	for i := range full {
		switch rng.Intn(8) {
		case 0:
			full[i] = math.Copysign(0, -1)
		case 1:
			full[i] = 0
		default:
			full[i] = rng.Float64()
		}
	}
	return map[string][]float64{"even": even, "non-even": full}
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestRealConv2DMatchesReferenceBits holds the batched convolver to the
// per-signal reference (reference_test.go) bit for bit: the kernel
// spectrum built at construction and every Apply, for even and non-even
// kernels, convolution and correlation, and grids holding ±0.
func TestRealConv2DMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, g := range RefSides {
		n := NextPow2(2*g - 1)
		for name, kernel := range testKernels(rng, g, n) {
			c, err := NewRealConv2D(g, kernel)
			if err != nil {
				t.Fatalf("g=%d %s: %v", g, name, err)
			}
			ref, err := NewRefRealConv2D(n, kernel)
			if err != nil {
				t.Fatalf("g=%d %s: reference: %v", g, name, err)
			}
			if c.even != ref.even || (name == "even" && !c.even) {
				t.Fatalf("g=%d %s: even = %v, reference %v", g, name, c.even, ref.even)
			}
			// Spectrum layouts differ: [ky*cols+kx] here, [kx*n+ky] there.
			for ky := 0; ky < n; ky++ {
				for kx := 0; kx < c.cols; kx++ {
					got, want := ky*c.cols+kx, kx*n+ky
					if math.Float64bits(c.kre[got]) != math.Float64bits(ref.kre[want]) ||
						math.Float64bits(c.kim[got]) != math.Float64bits(ref.kim[want]) {
						t.Fatalf("g=%d %s: kernel spectrum at (%d, %d) is %v%+vi, reference %v%+vi",
							g, name, kx, ky, c.kre[got], c.kim[got], ref.kre[want], ref.kim[want])
					}
				}
			}
			s, rs := c.NewScratch(), ref.NewScratch()
			for gi, grid := range signedZeroGrids(rng, g) {
				for _, correlate := range []bool{false, true} {
					full := embed(g, n, grid)
					ref.Apply(full, full, g, rs, correlate)
					want := corner(g, n, full)
					got := make([]float64, g*g)
					c.Apply(grid, got, s, correlate)
					if i := sameBits(got, want); i >= 0 {
						t.Fatalf("g=%d %s grid %d correlate=%v: cell %d is %v (%#x), reference %v (%#x)",
							g, name, gi, correlate, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{-3: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 79: 128, 128: 128}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
