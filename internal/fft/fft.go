// Package fft implements the small, deterministic, dependency-free fast
// Fourier transform that backs the convolutional channel engine
// (fo.ConvChannel): a 2-D real-input circular convolver of g×g grids
// against a kernel whose spectrum is precomputed once, built on a
// radix-2 decimation-in-time FFT that runs over batches of signals held
// in split real/imaginary float64 buffers.
//
// Each of the convolver's four 1-D passes (forward rows, forward
// columns, inverse columns, inverse rows) is one batched transform: a
// pass buffer holds point k of every signal of the pass in one
// contiguous vector, so each butterfly applies one twiddle to the whole
// vector, and two stages run per trip through the buffer. The bit
// reversal is folded into the copy that feeds each pass. A g×g grid lies
// in the low half of the n×n circulant on both axes (n = NextPow2(2g−1)
// ≥ 2g), so that copy also computes the first stage (x ± 0), and each
// inverse pass computes only the low half of its last stage. For an
// even kernel and n ≥ 16, the forward column pass's last two stages, the
// kernel multiply and the inverse column pass's first stage run as one
// loop.
//
// Design constraints, in order:
//
//   - Deterministic and bit-stable: no scratch sharing across goroutines
//     inside a transform, no parallelism, no architecture-dependent code
//     paths. Every value goes through the same IEEE operations in the
//     same order as a per-signal radix-2 transform of the zero-padded
//     circulant, so the bits do not depend on the batching; the tests
//     hold the convolver to such a per-signal reference bit for bit.
//     Where a fused loop adds a product that a per-signal transform
//     stores first, the product is written float64(x*y), which the
//     language spec makes a fusion barrier, so machines that fuse
//     multiply-adds keep the same bits too.
//   - Allocation-free in steady state: plans and scratch are reusable;
//     the EM loop runs thousands of convolutions per decode.
//   - Small: power-of-two sizes only. Convolutions of a g×g grid embed in
//     the next power of two ≥ 2g−1, so arbitrary grid sides are served by
//     pow2 transforms.
package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// Plan holds the tables of an n-point radix-2 decimation-in-time FFT
// (n a power of two) that runs over batches of signals: a pass buffer of
// lanes signals holds position k of every signal at [k·lanes,
// (k+1)·lanes). A Plan is immutable after construction and safe for
// concurrent use.
type Plan struct {
	n int
	// rev[m] is the natural index whose first-stage butterfly lands at
	// positions 2m and 2m+1 (its partner is rev[m]+n/2): the bit reversal
	// of m over log2(n)−1 bits, an involution on [0, n/2).
	rev []int
	// Per-stage twiddle tables, concatenated: stage size s ≥ 8 stores its
	// s/2 factors e^{-2πik/s} contiguously, so the butterfly loops stream
	// twiddles instead of striding through one size-n table.
	stre, stim []float64
	stageOff   []int   // offset of each stage's table, indexed by log2(size)
	inv        float64 // 1/n
}

// NewPlan builds a plan for transforms of size n (a power of two ≥ 1).
func NewPlan(n int) (*Plan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: size %d is not a positive power of two", n)
	}
	p := &Plan{n: n, inv: 1 / float64(n)}
	lg := bits.TrailingZeros(uint(n))
	p.rev = make([]int, n/2)
	for m := range p.rev {
		p.rev[m] = int(bits.Reverse32(uint32(2*m)) >> (32 - lg))
	}
	p.stageOff = make([]int, lg+1)
	for size := 8; size <= n; size <<= 1 {
		p.stageOff[bits.TrailingZeros(uint(size))] = len(p.stre)
		for k := 0; k < size/2; k++ {
			ang := -2 * math.Pi * float64(k) / float64(size)
			p.stre = append(p.stre, math.Cos(ang))
			p.stim = append(p.stim, math.Sin(ang))
		}
	}
	return p, nil
}

// twiddles returns the e^{-2πik/size} factors of a stage of size ≥ 8.
func (p *Plan) twiddles(size int) (wre, wim []float64) {
	off := p.stageOff[bits.TrailingZeros(uint(size))]
	h := size / 2
	return p.stre[off : off+h : off+h], p.stim[off : off+h : off+h]
}

// stages runs the stages of sizes 4, 8, …, to in place over a pass
// buffer of lanes signals whose first stage is done, two stages per trip
// through the buffer; when their count is odd, the size-4 stage runs
// alone first. An inverse transform is the same call with re and im
// swapped (the swap identity, unscaled).
func (p *Plan) stages(re, im []float64, lanes, to int) {
	if to < 4 {
		return
	}
	re, im = re[:p.n*lanes], im[:p.n*lanes]
	size := 4
	if bits.TrailingZeros(uint(to))%2 == 0 {
		stage4(re, im, lanes)
		size = 8
	}
	for ; size < to; size *= 4 {
		if size == 4 {
			w8re, w8im := p.twiddles(8)
			stages48(re, im, lanes, w8re, w8im)
		} else {
			p.stagePair(re, im, lanes, size)
		}
	}
}

// stagePair runs the stages of sizes s ≥ 8 and 2s in one trip: for each
// k < s/2 the points a, a+s/2, a+s, a+3s/2 of a 2s-block go through both
// stages' butterflies in registers.
func (p *Plan) stagePair(re, im []float64, lanes, s int) {
	h := s / 2
	w1re, w1im := p.twiddles(s)
	w2re, w2im := p.twiddles(2 * s)
	for start := 0; start < len(re); start += 2 * s * lanes {
		for k, w1r := range w1re {
			w1i := w1im[k]
			w2r, w2i := w2re[k], w2im[k]
			w3r, w3i := w2re[k+h], w2im[k+h]
			a := start + k*lanes
			b, c, d := a+h*lanes, a+s*lanes, a+3*h*lanes
			ar, ai := re[a:][:lanes], im[a:][:lanes]
			br, bi := re[b:][:lanes], im[b:][:lanes]
			cr, ci := re[c:][:lanes], im[c:][:lanes]
			dr, di := re[d:][:lanes], im[d:][:lanes]
			for j := range ar {
				// Stage s: (a, b) and (c, d) under w1.
				xr, xi := br[j], bi[j]
				tr := float64(xr*w1r) - xi*w1i
				ti := float64(xr*w1i) + xi*w1r
				ur, ui := ar[j], ai[j]
				a1r, a1i := ur+tr, ui+ti
				b1r, b1i := ur-tr, ui-ti
				xr, xi = dr[j], di[j]
				tr = float64(xr*w1r) - xi*w1i
				ti = float64(xr*w1i) + xi*w1r
				ur, ui = cr[j], ci[j]
				c1r, c1i := ur+tr, ui+ti
				d1r, d1i := ur-tr, ui-ti
				// Stage 2s: (a, c) under w2, (b, d) under w3.
				tr = float64(c1r*w2r) - c1i*w2i
				ti = float64(c1r*w2i) + c1i*w2r
				ar[j], ai[j] = a1r+tr, a1i+ti
				cr[j], ci[j] = a1r-tr, a1i-ti
				tr = float64(d1r*w3r) - d1i*w3i
				ti = float64(d1r*w3i) + d1i*w3r
				br[j], bi[j] = b1r+tr, b1i+ti
				dr[j], di[j] = b1r-tr, b1i-ti
			}
		}
	}
}

// stages48 runs the size-4 stage (twiddles 1 and −i: pure add/sub pairs
// and a swap, no products) and the size-8 stage, whose twiddles are w8,
// in one trip.
func stages48(re, im []float64, lanes int, w8re, w8im []float64) {
	for start := 0; start < len(re); start += 8 * lanes {
		// k = 0: size-4 twiddle 1, size-8 twiddles w8[0] and w8[2].
		w2r, w2i := w8re[0], w8im[0]
		w3r, w3i := w8re[2], w8im[2]
		ar, ai := re[start:][:lanes], im[start:][:lanes]
		br, bi := re[start+2*lanes:][:lanes], im[start+2*lanes:][:lanes]
		cr, ci := re[start+4*lanes:][:lanes], im[start+4*lanes:][:lanes]
		dr, di := re[start+6*lanes:][:lanes], im[start+6*lanes:][:lanes]
		for j := range ar {
			ur, ui := ar[j], ai[j]
			xr, xi := br[j], bi[j]
			a1r, a1i := ur+xr, ui+xi
			b1r, b1i := ur-xr, ui-xi
			ur, ui = cr[j], ci[j]
			xr, xi = dr[j], di[j]
			c1r, c1i := ur+xr, ui+xi
			d1r, d1i := ur-xr, ui-xi
			tr := float64(c1r*w2r) - c1i*w2i
			ti := float64(c1r*w2i) + c1i*w2r
			ar[j], ai[j] = a1r+tr, a1i+ti
			cr[j], ci[j] = a1r-tr, a1i-ti
			tr = float64(d1r*w3r) - d1i*w3i
			ti = float64(d1r*w3i) + d1i*w3r
			br[j], bi[j] = b1r+tr, b1i+ti
			dr[j], di[j] = b1r-tr, b1i-ti
		}
		// k = 1: size-4 twiddle −i, (-i)·(x + iy) = y − ix; size-8
		// twiddles w8[1] and w8[3].
		w2r, w2i = w8re[1], w8im[1]
		w3r, w3i = w8re[3], w8im[3]
		a := start + lanes
		ar, ai = re[a:][:lanes], im[a:][:lanes]
		br, bi = re[a+2*lanes:][:lanes], im[a+2*lanes:][:lanes]
		cr, ci = re[a+4*lanes:][:lanes], im[a+4*lanes:][:lanes]
		dr, di = re[a+6*lanes:][:lanes], im[a+6*lanes:][:lanes]
		for j := range ar {
			ur, ui := ar[j], ai[j]
			tr, ti := bi[j], -br[j]
			a1r, a1i := ur+tr, ui+ti
			b1r, b1i := ur-tr, ui-ti
			ur, ui = cr[j], ci[j]
			tr, ti = di[j], -dr[j]
			c1r, c1i := ur+tr, ui+ti
			d1r, d1i := ur-tr, ui-ti
			tr = float64(c1r*w2r) - c1i*w2i
			ti = float64(c1r*w2i) + c1i*w2r
			ar[j], ai[j] = a1r+tr, a1i+ti
			cr[j], ci[j] = a1r-tr, a1i-ti
			tr = float64(d1r*w3r) - d1i*w3i
			ti = float64(d1r*w3i) + d1i*w3r
			br[j], bi[j] = b1r+tr, b1i+ti
			dr[j], di[j] = b1r-tr, b1i-ti
		}
	}
}

// stage4 runs the size-4 stage, whose twiddles are 1 and −i, alone.
func stage4(re, im []float64, lanes int) {
	for b := 0; b < len(re); b += 4 * lanes {
		r0, i0 := re[b:][:lanes], im[b:][:lanes]
		r1, i1 := re[b+lanes:][:lanes], im[b+lanes:][:lanes]
		r2, i2 := re[b+2*lanes:][:lanes], im[b+2*lanes:][:lanes]
		r3, i3 := re[b+3*lanes:][:lanes], im[b+3*lanes:][:lanes]
		for j := range r0 {
			ar, ai := r0[j], i0[j]
			br, bi := r2[j], i2[j]
			r0[j], i0[j] = ar+br, ai+bi
			r2[j], i2[j] = ar-br, ai-bi
			ar, ai = r1[j], i1[j]
			// (-i)·(x + iy) = y − ix
			tr, ti := i3[j], -r3[j]
			r1[j], i1[j] = ar+tr, ai+ti
			r3[j], i3[j] = ar-tr, ai-ti
		}
	}
}

// inverseLow runs the stages after the first of an inverse transform
// (the swap identity: re and im exchange roles, unscaled) whose output
// is needed only in its low half. From n = 16 on, its last two stages
// run as one lowPair trip.
func (p *Plan) inverseLow(re, im []float64, lanes int) {
	if p.n < 16 {
		p.stages(im, re, lanes, p.n)
		return
	}
	p.stages(im, re, lanes, p.n/4)
	p.lowPair(im, re, lanes)
}

// lowPair runs the last two stages (sizes n/2 and n, n ≥ 16) of a
// transform whose output is needed only in the low half, in place: for
// each k < n/4 the points k, k+n/4, k+n/2, k+3n/4 go through the size-n/2
// butterflies, and the size-n butterflies compute only their low outputs,
// at k and k+n/4.
func (p *Plan) lowPair(re, im []float64, lanes int) {
	q := p.n / 4
	w1re, w1im := p.twiddles(p.n / 2)
	w2re, w2im := p.twiddles(p.n)
	for k, w1r := range w1re {
		w1i := w1im[k]
		w2r, w2i := w2re[k], w2im[k]
		w3r, w3i := w2re[k+q], w2im[k+q]
		a := k * lanes
		ar, ai := re[a:][:lanes], im[a:][:lanes]
		br, bi := re[a+q*lanes:][:lanes], im[a+q*lanes:][:lanes]
		cr, ci := re[a+2*q*lanes:][:lanes], im[a+2*q*lanes:][:lanes]
		dr, di := re[a+3*q*lanes:][:lanes], im[a+3*q*lanes:][:lanes]
		for j := range ar {
			xr, xi := br[j], bi[j]
			tr := float64(xr*w1r) - xi*w1i
			ti := float64(xr*w1i) + xi*w1r
			ur, ui := ar[j], ai[j]
			a1r, a1i := ur+tr, ui+ti
			b1r, b1i := ur-tr, ui-ti
			xr, xi = dr[j], di[j]
			tr = float64(xr*w1r) - xi*w1i
			ti = float64(xr*w1i) + xi*w1r
			ur, ui = cr[j], ci[j]
			c1r, c1i := ur+tr, ui+ti
			d1r, d1i := ur-tr, ui-ti
			tr = float64(c1r*w2r) - c1i*w2i
			ti = float64(c1r*w2i) + c1i*w2r
			ar[j], ai[j] = a1r+tr, a1i+ti
			tr = float64(d1r*w3r) - d1i*w3i
			ti = float64(d1r*w3i) + d1i*w3r
			br[j], bi[j] = b1r+tr, b1i+ti
		}
	}
}

// ConvScratch is the per-call working memory of a RealConv2D. Scratch is
// NOT safe for concurrent use; callers that convolve from several
// goroutines hold one scratch each (fo.ConvChannel pools them).
type ConvScratch struct {
	rre, rim []float64 // row passes: n points × ⌈g/2⌉ packed row pairs
	fre, fim []float64 // forward column pass: n points × (n/2+1) columns
	gre, gim []float64 // inverse column pass, same shape
}

// RealConv2D performs circular 2-D convolution (or correlation) of real
// g×g grids, zero-padded into an n×n circulant with n = NextPow2(2g−1),
// against a fixed real n×n kernel whose spectrum is precomputed once at
// construction. The transform is real-input optimised twice over:
// spatial rows are packed two at a time into one complex signal (the
// classic two-for-one split), and only the n/2+1 non-redundant spectral
// columns of the Hermitian half-spectrum are ever transformed,
// multiplied or inverted.
type RealConv2D struct {
	g, n  int
	pairs int // packed row pairs, ⌈g/2⌉
	cols  int // Hermitian spectral columns, n/2+1
	plan  *Plan
	// Kernel half-spectrum, laid out as the column pass: row ky holds
	// every column's value at [ky·cols, (ky+1)·cols).
	kre, kim []float64
	zero     []float64 // n zeros: the imaginary row of an odd grid's last pair
	// even reports that the kernel satisfies k(-t) = k(t) (circularly),
	// so its spectrum is exactly real: kim is discarded, the pointwise
	// multiply runs at half cost, and convolution equals correlation.
	even bool
}

// NewRealConv2D builds a convolver for g×g grids from the kernel given as
// a row-major n×n real array with n = NextPow2(2g−1) (kernel[y*n+x] is
// the kernel value at circular displacement (x, y)).
func NewRealConv2D(g int, kernel []float64) (*RealConv2D, error) {
	if g < 1 {
		return nil, fmt.Errorf("fft: grid side %d is not positive", g)
	}
	n := NextPow2(2*g - 1)
	if len(kernel) != n*n {
		return nil, fmt.Errorf("fft: kernel has %d entries for a %d×%d circulant", len(kernel), n, n)
	}
	plan, err := NewPlan(n)
	if err != nil {
		return nil, err
	}
	c := &RealConv2D{g: g, n: n, pairs: (g + 1) / 2, cols: n/2 + 1, plan: plan, zero: make([]float64, n)}
	c.even = kernelEven(n, kernel)
	scale := plan.inv * plan.inv
	if n == 1 {
		// The one-point pair (k, 0) splits into (k + k)/2 and 0.
		c.kre = []float64{(kernel[0] + kernel[0]) / 2 * scale}
		c.kim = []float64{0}
		return c, nil
	}
	// The kernel fills the whole circulant: n/2 row pairs, every point of
	// every row and column significant.
	rre := make([]float64, n*n/2)
	rim := make([]float64, n*n/2)
	c.kre = make([]float64, n*c.cols)
	c.kim = make([]float64, n*c.cols)
	c.loadRows(rre, rim, n/2, kernel, n)
	plan.stages(rre, rim, n/2, n)
	c.scatter(rre, rim, n/2, n, c.kre, c.kim)
	plan.stages(c.kre, c.kim, c.cols, n)
	// Fold both dimensions' inverse-FFT scalings (1/n each) into the
	// kernel spectrum once, so every Apply skips two full scaling sweeps.
	for i := range c.kre {
		c.kre[i] *= scale
		c.kim[i] *= scale
	}
	if c.even {
		// The spectrum of a real even signal is real; the residual
		// imaginary parts are pure rounding noise, so dropping them
		// both halves the multiply cost and removes that noise.
		clear(c.kim)
	}
	return c, nil
}

// kernelEven reports whether kernel[(-t) mod n] == kernel[t] exactly.
func kernelEven(n int, kernel []float64) bool {
	for y := 0; y < n; y++ {
		my := ((n - y) % n) * n
		for x := 0; x < n; x++ {
			if kernel[y*n+x] != kernel[my+(n-x)%n] {
				return false
			}
		}
	}
	return true
}

// NewScratch allocates working memory for Apply. One scratch serves any
// number of sequential Apply calls.
func (c *RealConv2D) NewScratch() *ConvScratch {
	rows, cols := c.n*c.pairs, c.n*c.cols
	return &ConvScratch{
		rre: make([]float64, rows), rim: make([]float64, rows),
		fre: make([]float64, cols), fim: make([]float64, cols),
		gre: make([]float64, cols), gim: make([]float64, cols),
	}
}

// Apply computes dst = src ⊛ kernel (circular convolution on the n×n
// circulant, restricted to the grid) when correlate is false, or the
// circular cross-correlation Σ_s src(s)·kernel(s−t) when correlate is
// true. src and dst are row-major g×g real arrays (they may alias).
func (c *RealConv2D) Apply(src, dst []float64, s *ConvScratch, correlate bool) {
	g, n, p := c.g, c.n, c.plan
	if n == 1 {
		dst[0] = src[0] * c.kre[0]
		return
	}
	c.loadRows(s.rre, s.rim, c.pairs, src[:g*g], g)
	p.stages(s.rre, s.rim, c.pairs, n)
	c.scatter(s.rre, s.rim, c.pairs, g, s.fre, s.fim)
	if c.even && n >= 16 {
		p.stages(s.fre, s.fim, c.cols, n/4)
		c.fusePair(s)
	} else {
		p.stages(s.fre, s.fim, c.cols, n)
		c.multiply(s, correlate)
	}
	// The 1/n scalings of both inverse passes were folded into the kernel
	// spectrum at construction. Only rows [0, 2·pairs) of the inverse
	// column pass feed the inverse row pass, and only columns [0, g) of
	// that are wanted: both lie in the low half.
	p.inverseLow(s.gre, s.gim, c.cols)
	c.gather(s)
	p.inverseLow(s.rre, s.rim, c.pairs)
	for pr := 0; pr < c.pairs; pr++ {
		y := 2 * pr
		row := dst[y*g : (y+1)*g]
		for x := range row {
			row[x] = s.rre[x*c.pairs+pr]
		}
		if y+1 < g {
			row = dst[(y+1)*g : (y+2)*g]
			for x := range row {
				row[x] = s.rim[x*c.pairs+pr]
			}
		}
	}
}

// loadRows packs the rows of src (w wide, len(src)/w rows) two at a
// time into the complex signals of a row pass — row 2p as the real part
// and row 2p+1 (zero past the last row) as the imaginary part of signal
// p — and writes each signal's first-stage output in bit-reversed
// position order. A kernel row fills the circulant (w = n); a grid row
// fills at most its low half, so each point's partner is zero.
func (c *RealConv2D) loadRows(re, im []float64, lanes int, src []float64, w int) {
	half := c.n / 2
	rows := len(src) / w
	for p := 0; p < lanes; p++ {
		xr, xi := src[2*p*w:][:w], c.zero[:w]
		if 2*p+1 < rows {
			xi = src[(2*p+1)*w:][:w]
		}
		if w == c.n {
			for m, j := range c.plan.rev {
				a := 2*m*lanes + p
				ar, ai, br, bi := xr[j], xi[j], xr[j+half], xi[j+half]
				re[a], im[a] = ar+br, ai+bi
				re[a+lanes], im[a+lanes] = ar-br, ai-bi
			}
			continue
		}
		for m, j := range c.plan.rev {
			var ar, ai float64
			if j < w {
				ar, ai = xr[j], xi[j]
			}
			a := 2*m*lanes + p
			re[a], im[a] = ar+0, ai+0
			re[a+lanes], im[a+lanes] = ar-0, ai-0
		}
	}
}

// scatter separates the row pass's packed spectra (pairs signals) into
// their Hermitian halves — X0 = (Z + conj(Z̃))/2 for row 2p and
// X1 = (Z − conj(Z̃))/2i for row 2p+1 — at the n/2+1 spectral columns,
// and writes the column pass's first-stage output in bit-reversed
// position order. Rows at or past rows are zero; a row in the upper half
// (a kernel's) enters the first stage as its low-half row's partner. The
// compiler turns each /2 into a product, hence the float64 barriers.
func (c *RealConv2D) scatter(rre, rim []float64, pairs, rows int, fre, fim []float64) {
	n, half, cols := c.n, c.n/2, c.cols
	mask := n - 1
	for r := 0; r < half; r += 2 {
		p, q := r/2, r/2+n/4 // pair of rows r, r+1 and of their partners
		a0, a1 := 2*c.plan.rev[r]*cols, 2*c.plan.rev[r+1]*cols
		f0r, f0i := fre[a0:][:cols], fim[a0:][:cols]
		g0r, g0i := fre[a0+cols:][:cols], fim[a0+cols:][:cols]
		f1r, f1i := fre[a1:][:cols], fim[a1:][:cols]
		g1r, g1i := fre[a1+cols:][:cols], fim[a1+cols:][:cols]
		switch {
		case p >= pairs:
			for _, v := range [][]float64{f0r, f0i, g0r, g0i, f1r, f1i, g1r, g1i} {
				clear(v)
			}
			continue
		case q < pairs:
			for kx := range f0r {
				m := (n - kx) & mask
				ar, ai := rre[kx*pairs+p], rim[kx*pairs+p]
				br, bi := rre[m*pairs+p], -rim[m*pairs+p]
				x0r, x0i := float64((ar+br)/2), float64((ai+bi)/2)
				x1r, x1i := float64((ai-bi)/2), float64((br-ar)/2)
				ar, ai = rre[kx*pairs+q], rim[kx*pairs+q]
				br, bi = rre[m*pairs+q], -rim[m*pairs+q]
				y0r, y0i := float64((ar+br)/2), float64((ai+bi)/2)
				y1r, y1i := float64((ai-bi)/2), float64((br-ar)/2)
				f0r[kx], f0i[kx] = x0r+y0r, x0i+y0i
				g0r[kx], g0i[kx] = x0r-y0r, x0i-y0i
				f1r[kx], f1i[kx] = x1r+y1r, x1i+y1i
				g1r[kx], g1i[kx] = x1r-y1r, x1i-y1i
			}
		default:
			for kx := range f0r {
				m := (n - kx) & mask
				ar, ai := rre[kx*pairs+p], rim[kx*pairs+p]
				br, bi := rre[m*pairs+p], -rim[m*pairs+p]
				x0r, x0i := float64((ar+br)/2), float64((ai+bi)/2)
				x1r, x1i := float64((ai-bi)/2), float64((br-ar)/2)
				f0r[kx], f0i[kx] = x0r+0, x0i+0
				g0r[kx], g0i[kx] = x0r-0, x0i-0
				f1r[kx], f1i[kx] = x1r+0, x1i+0
				g1r[kx], g1i[kx] = x1r-0, x1i-0
			}
		}
		if r+1 >= rows {
			for _, v := range [][]float64{f1r, f1i, g1r, g1i} {
				clear(v)
			}
		}
	}
}

// fusePair runs, for an even kernel and n ≥ 16, the forward column
// pass's last two stages (sizes n/2 and n), the multiply by the real
// kernel spectrum and the inverse column pass's first stage in one trip:
// for each k < n/4 the points k, k+n/4, k+n/2, k+3n/4 go through both
// forward butterflies, whose outputs at k and k+n/2 (and at k+n/4 and
// k+3n/4) are exactly the pairs the inverse's first stage combines.
func (c *RealConv2D) fusePair(s *ConvScratch) {
	n, cols := c.n, c.cols
	q := n / 4
	w1re, w1im := c.plan.twiddles(n / 2)
	w2re, w2im := c.plan.twiddles(n)
	for k, w1r := range w1re {
		w1i := w1im[k]
		w2r, w2i := w2re[k], w2im[k]
		w3r, w3i := w2re[k+q], w2im[k+q]
		a, b := k*cols, (k+q)*cols
		cc, d := (k+2*q)*cols, (k+3*q)*cols
		ar, ai := s.fre[a:][:cols], s.fim[a:][:cols]
		br, bi := s.fre[b:][:cols], s.fim[b:][:cols]
		cr, ci := s.fre[cc:][:cols], s.fim[cc:][:cols]
		dr, di := s.fre[d:][:cols], s.fim[d:][:cols]
		ka, kb := c.kre[a:][:cols], c.kre[b:][:cols]
		kc, kd := c.kre[cc:][:cols], c.kre[d:][:cols]
		ga, gb := 2*c.plan.rev[k]*cols, 2*c.plan.rev[k+q]*cols
		g0r, g0i := s.gre[ga:][:cols], s.gim[ga:][:cols]
		g1r, g1i := s.gre[ga+cols:][:cols], s.gim[ga+cols:][:cols]
		g2r, g2i := s.gre[gb:][:cols], s.gim[gb:][:cols]
		g3r, g3i := s.gre[gb+cols:][:cols], s.gim[gb+cols:][:cols]
		for j := range ar {
			// Stage n/2: (k, k+n/4) and (k+n/2, k+3n/4) under w1.
			xr, xi := br[j], bi[j]
			tr := float64(xr*w1r) - xi*w1i
			ti := float64(xr*w1i) + xi*w1r
			ur, ui := ar[j], ai[j]
			a1r, a1i := ur+tr, ui+ti
			b1r, b1i := ur-tr, ui-ti
			xr, xi = dr[j], di[j]
			tr = float64(xr*w1r) - xi*w1i
			ti = float64(xr*w1i) + xi*w1r
			ur, ui = cr[j], ci[j]
			c1r, c1i := ur+tr, ui+ti
			d1r, d1i := ur-tr, ui-ti
			// Stage n: (k, k+n/2) under w2, then the kernel and the
			// inverse's first stage.
			tr = float64(c1r*w2r) - c1i*w2i
			ti = float64(c1r*w2i) + c1i*w2r
			yr, yi := float64((a1r+tr)*ka[j]), float64((a1i+ti)*ka[j])
			zr, zi := float64((a1r-tr)*kc[j]), float64((a1i-ti)*kc[j])
			g0r[j], g0i[j] = yr+zr, yi+zi
			g1r[j], g1i[j] = yr-zr, yi-zi
			// (k+n/4, k+3n/4) under w3.
			tr = float64(d1r*w3r) - d1i*w3i
			ti = float64(d1r*w3i) + d1i*w3r
			yr, yi = float64((b1r+tr)*kb[j]), float64((b1i+ti)*kb[j])
			zr, zi = float64((b1r-tr)*kd[j]), float64((b1i-ti)*kd[j])
			g2r[j], g2i[j] = yr+zr, yi+zi
			g3r[j], g3i[j] = yr-zr, yi-zi
		}
	}
}

// multiply multiplies the forward column pass's output (natural order)
// by the kernel spectrum (conjugated for correlation) and runs the
// inverse column pass's first stage into s.gre/s.gim.
func (c *RealConv2D) multiply(s *ConvScratch, correlate bool) {
	half, cols := c.n/2, c.cols
	sign := 1.0
	if correlate {
		sign = -1
	}
	for k := 0; k < half; k++ {
		lo, hi := k*cols, (k+half)*cols
		a := 2 * c.plan.rev[k] * cols
		lr, li := s.fre[lo:][:cols], s.fim[lo:][:cols]
		hr, hI := s.fre[hi:][:cols], s.fim[hi:][:cols]
		kra, krb := c.kre[lo:][:cols], c.kre[hi:][:cols]
		kia, kib := c.kim[lo:][:cols], c.kim[hi:][:cols]
		g0r, g0i := s.gre[a:][:cols], s.gim[a:][:cols]
		g1r, g1i := s.gre[a+cols:][:cols], s.gim[a+cols:][:cols]
		for j := range lr {
			var ar, ai, br, bi float64
			if c.even {
				// Real kernel spectrum: conj(K) = K, one multiply per float.
				ar, ai = float64(lr[j]*kra[j]), float64(li[j]*kra[j])
				br, bi = float64(hr[j]*krb[j]), float64(hI[j]*krb[j])
			} else {
				ki := sign * kia[j]
				ar = float64(lr[j]*kra[j]) - li[j]*ki
				ai = float64(lr[j]*ki) + li[j]*kra[j]
				ki = sign * kib[j]
				br = float64(hr[j]*krb[j]) - hI[j]*ki
				bi = float64(hr[j]*ki) + hI[j]*krb[j]
			}
			g0r[j], g0i[j] = ar+br, ai+bi
			g1r[j], g1i[j] = ar-br, ai-bi
		}
	}
}

// gather rebuilds each packed row pair's spectrum Z = X0 + i·X1 from the
// inverse column pass's rows 2p and 2p+1 of the Hermitian half-spectrum,
// and writes the inverse row pass's first-stage output in bit-reversed
// position order.
func (c *RealConv2D) gather(s *ConvScratch) {
	half, cols, pairs := c.n/2, c.cols, c.pairs
	for p := 0; p < pairs; p++ {
		r0, r1 := 2*p*cols, (2*p+1)*cols
		xr, xi := s.gre[r0:][:cols], s.gim[r0:][:cols]
		yr, yi := s.gre[r1:][:cols], s.gim[r1:][:cols]
		// Natural index 0 pairs with Z[n/2] itself.
		ar, ai := xr[0]-yi[0], xi[0]+yr[0]
		br, bi := xr[half]-yi[half], xi[half]+yr[half]
		s.rre[p], s.rim[p] = ar+br, ai+bi
		s.rre[pairs+p], s.rim[pairs+p] = ar-br, ai-bi
		for m, j := range c.plan.rev[1:] {
			// Z[j], and Z[j+n/2] = Z[n−kx] = conj(X0[kx]) + i·conj(X1[kx])
			// at kx = n/2−j.
			kx := half - j
			ar, ai := xr[j]-yi[j], xi[j]+yr[j]
			br, bi := xr[kx]+yi[kx], -xi[kx]+yr[kx]
			a := 2 * (m + 1) * pairs
			s.rre[a+p], s.rim[a+p] = ar+br, ai+bi
			s.rre[a+pairs+p], s.rim[a+pairs+p] = ar-br, ai-bi
		}
	}
}

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
