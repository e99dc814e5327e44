package fft

// The per-signal convolver this package shipped before its passes were
// batched, kept verbatim apart from its names as the reference the
// batched convolver must match bit for bit: one complex FFT (or two
// interleaved) per packed row pair and per spectral column, each with
// its own bit-reversal sweep, and an n×n embedding pruned to its
// significant rows. Exported names serve the external tests that build
// fo.ConvChannel's reference on it.

import (
	"fmt"
	"math"
	"math/bits"
)

// refPlan is a 1-D complex FFT of a fixed power-of-two size, operating in
// place on split re/im slices. A refPlan is immutable after construction and
// safe for concurrent use (it holds no mutable state).
type refPlan struct {
	n   int
	rev []int32 // bit-reversal permutation
	// Per-stage twiddle tables, concatenated: stage size s ≥ 8 stores its
	// s/2 factors e^{-2πik/s} contiguously, so the hot butterfly loop
	// streams twiddles instead of striding through one size-n table.
	stre, stim []float64
	stageOff   []int   // offset of each stage's table, indexed by log2(size)
	inv        float64 // 1/n
}

// newRefPlan builds a plan for transforms of size n (a power of two ≥ 1).
func newRefPlan(n int) (*refPlan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: size %d is not a positive power of two", n)
	}
	p := &refPlan{n: n, inv: 1 / float64(n)}
	lg := bits.TrailingZeros(uint(n))
	p.rev = make([]int32, n)
	for i := 0; i < n; i++ {
		p.rev[i] = int32(bits.Reverse32(uint32(i)) >> (32 - lg))
	}
	if n == 1 {
		p.rev[0] = 0
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

// Forward computes the unscaled forward DFT of re/im (length n) in place:
// X_k = Σ_j x_j · e^{-2πijk/n}.
func (p *refPlan) Forward(re, im []float64) {
	n := p.n
	if n == 1 {
		return
	}
	re = re[:n]
	im = im[:n]
	for i, r := range p.rev {
		if int32(i) < r {
			re[i], re[r] = re[r], re[i]
			im[i], im[r] = im[r], im[i]
		}
	}
	// Stage size=2: all twiddles are 1 — pure add/sub pairs.
	for k := 0; k < n; k += 2 {
		ar, ai := re[k], im[k]
		br, bi := re[k+1], im[k+1]
		re[k], im[k] = ar+br, ai+bi
		re[k+1], im[k+1] = ar-br, ai-bi
	}
	if n == 2 {
		return
	}
	// Stage size=4: twiddles are 1 and -i.
	for k := 0; k < n; k += 4 {
		ar, ai := re[k], im[k]
		br, bi := re[k+2], im[k+2]
		re[k], im[k] = ar+br, ai+bi
		re[k+2], im[k+2] = ar-br, ai-bi
		ar, ai = re[k+1], im[k+1]
		// (-i)·(x + iy) = y − ix
		tr, ti := im[k+3], -re[k+3]
		re[k+1], im[k+1] = ar+tr, ai+ti
		re[k+3], im[k+3] = ar-tr, ai-ti
	}
	// General stages, streaming each stage's contiguous twiddle table.
	lg := 3
	for size := 8; size <= n; size <<= 1 {
		half := size >> 1
		off := p.stageOff[lg]
		wre := p.stre[off : off+half : off+half]
		wim := p.stim[off : off+half : off+half]
		for start := 0; start < n; start += size {
			lo := re[start : start+half : start+half]
			li := im[start : start+half : start+half]
			hi := re[start+half : start+size : start+size]
			hiI := im[start+half : start+size : start+size]
			for k := 0; k < half; k++ {
				wr, wi := wre[k], wim[k]
				xr, xi := hi[k], hiI[k]
				tr := xr*wr - xi*wi
				ti := xr*wi + xi*wr
				ur, ui := lo[k], li[k]
				lo[k] = ur + tr
				li[k] = ui + ti
				hi[k] = ur - tr
				hiI[k] = ui - ti
			}
		}
		lg++
	}
}

// Forward2 computes the forward DFT of two independent signals in one
// interleaved pass: the twiddle stream is shared and the butterfly loop
// carries twice the independent arithmetic, which hides floating-point
// latency on the 2-D passes where transforms always come in batches.
// Bit-identical to two Forward calls.
func (p *refPlan) Forward2(re1, im1, re2, im2 []float64) {
	n := p.n
	if n == 1 {
		return
	}
	re1, im1 = re1[:n], im1[:n]
	re2, im2 = re2[:n], im2[:n]
	for i, r := range p.rev {
		if int32(i) < r {
			re1[i], re1[r] = re1[r], re1[i]
			im1[i], im1[r] = im1[r], im1[i]
			re2[i], re2[r] = re2[r], re2[i]
			im2[i], im2[r] = im2[r], im2[i]
		}
	}
	for k := 0; k < n; k += 2 {
		ar, ai := re1[k], im1[k]
		br, bi := re1[k+1], im1[k+1]
		re1[k], im1[k] = ar+br, ai+bi
		re1[k+1], im1[k+1] = ar-br, ai-bi
		cr, ci := re2[k], im2[k]
		dr, di := re2[k+1], im2[k+1]
		re2[k], im2[k] = cr+dr, ci+di
		re2[k+1], im2[k+1] = cr-dr, ci-di
	}
	if n == 2 {
		return
	}
	for k := 0; k < n; k += 4 {
		ar, ai := re1[k], im1[k]
		br, bi := re1[k+2], im1[k+2]
		re1[k], im1[k] = ar+br, ai+bi
		re1[k+2], im1[k+2] = ar-br, ai-bi
		ar, ai = re1[k+1], im1[k+1]
		tr, ti := im1[k+3], -re1[k+3]
		re1[k+1], im1[k+1] = ar+tr, ai+ti
		re1[k+3], im1[k+3] = ar-tr, ai-ti
		ar, ai = re2[k], im2[k]
		br, bi = re2[k+2], im2[k+2]
		re2[k], im2[k] = ar+br, ai+bi
		re2[k+2], im2[k+2] = ar-br, ai-bi
		ar, ai = re2[k+1], im2[k+1]
		tr, ti = im2[k+3], -re2[k+3]
		re2[k+1], im2[k+1] = ar+tr, ai+ti
		re2[k+3], im2[k+3] = ar-tr, ai-ti
	}
	lg := 3
	for size := 8; size <= n; size <<= 1 {
		half := size >> 1
		off := p.stageOff[lg]
		wre := p.stre[off : off+half : off+half]
		wim := p.stim[off : off+half : off+half]
		for start := 0; start < n; start += size {
			lo1 := re1[start : start+half : start+half]
			li1 := im1[start : start+half : start+half]
			hi1 := re1[start+half : start+size : start+size]
			hj1 := im1[start+half : start+size : start+size]
			lo2 := re2[start : start+half : start+half]
			li2 := im2[start : start+half : start+half]
			hi2 := re2[start+half : start+size : start+size]
			hj2 := im2[start+half : start+size : start+size]
			for k := 0; k < half; k++ {
				wr, wi := wre[k], wim[k]
				xr, xi := hi1[k], hj1[k]
				tr := xr*wr - xi*wi
				ti := xr*wi + xi*wr
				ur, ui := lo1[k], li1[k]
				lo1[k] = ur + tr
				li1[k] = ui + ti
				hi1[k] = ur - tr
				hj1[k] = ui - ti
				yr, yi := hi2[k], hj2[k]
				sr := yr*wr - yi*wi
				si := yr*wi + yi*wr
				vr, vi := lo2[k], li2[k]
				lo2[k] = vr + sr
				li2[k] = vi + si
				hi2[k] = vr - sr
				hj2[k] = vi - si
			}
		}
		lg++
	}
}

// inverseRaw / inverseRaw2 are the unscaled inverse transforms (the swap
// identity without the 1/n pass). The 2-D convolver pre-folds both
// dimensions' scalings into the kernel spectrum, so its inverse passes
// skip the per-element scaling sweeps entirely.
func (p *refPlan) inverseRaw(re, im []float64)              { p.Forward(im, re) }
func (p *refPlan) inverseRaw2(re1, im1, re2, im2 []float64) { p.Forward2(im1, re1, im2, re2) }

// RefConvScratch is the per-call working memory of a RefRealConv2D. Scratch is
// NOT safe for concurrent use; callers that convolve from several
// goroutines hold one scratch each (fo.ConvChannel pools them).
type RefConvScratch struct {
	sre, sim   []float64 // half-spectrum, (n/2+1) columns × n rows, column-major
	zre, zim   []float64 // one packed row pair
	z2re, z2im []float64 // second packed row pair for the interleaved passes
}

// RefRealConv2D performs circular 2-D convolution (or correlation) of real
// n×n grids against a fixed real kernel, with the kernel's spectrum
// precomputed once at construction. The transform is real-input
// optimised twice over: spatial rows are packed two at a time into one
// complex FFT (the classic two-for-one split), and only the n/2+1
// non-redundant spectral columns of the Hermitian half-spectrum are ever
// transformed, multiplied or inverted.
type RefRealConv2D struct {
	n    int
	plan *refPlan
	kre  []float64 // kernel half-spectrum, same layout as RefConvScratch
	kim  []float64
	// even reports that the kernel satisfies k(-t) = k(t) (circularly),
	// so its spectrum is exactly real: kim is discarded, the pointwise
	// multiply runs at half cost, and convolution equals correlation.
	even bool
}

// NewRefRealConv2D builds a convolver for an n×n grid from the kernel given
// as a row-major n×n real array (kernel[y*n+x] is the kernel value at
// circular displacement (x, y)). n must be a power of two.
func NewRefRealConv2D(n int, kernel []float64) (*RefRealConv2D, error) {
	if len(kernel) != n*n {
		return nil, fmt.Errorf("fft: kernel has %d entries for a %d×%d grid", len(kernel), n, n)
	}
	plan, err := newRefPlan(n)
	if err != nil {
		return nil, err
	}
	c := &RefRealConv2D{n: n, plan: plan}
	c.even = refKernelEven(n, kernel)
	half := n/2 + 1
	c.kre = make([]float64, half*n)
	c.kim = make([]float64, half*n)
	s := c.NewScratch()
	c.forward2D(kernel, n, s)
	// Fold both dimensions' inverse-FFT scalings (1/n each) into the
	// kernel spectrum once, so every Apply skips two full scaling sweeps.
	scale := plan.inv * plan.inv
	for i := range c.kre {
		c.kre[i] = s.sre[i] * scale
		c.kim[i] = s.sim[i] * scale
	}
	if c.even {
		// The spectrum of a real even signal is real; the residual
		// imaginary parts are pure rounding noise, so dropping them
		// both halves the multiply cost and removes that noise.
		for i := range c.kim {
			c.kim[i] = 0
		}
	}
	return c, nil
}

// refKernelEven reports whether kernel[(-t) mod n] == kernel[t] exactly.
func refKernelEven(n int, kernel []float64) bool {
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
func (c *RefRealConv2D) NewScratch() *RefConvScratch {
	half := c.n/2 + 1
	return &RefConvScratch{
		sre:  make([]float64, half*c.n),
		sim:  make([]float64, half*c.n),
		zre:  make([]float64, c.n),
		zim:  make([]float64, c.n),
		z2re: make([]float64, c.n),
		z2im: make([]float64, c.n),
	}
}

// Apply computes dst = src ⊛ kernel (circular convolution) when correlate
// is false, or the circular cross-correlation Σ_s src(s)·kernel(s−t) when
// correlate is true. src and dst are row-major n×n real arrays (they may
// alias). rows prunes the transform: only src rows [0, rows) are read
// (the rest are treated as zero) and only dst rows [0, rows) are written
// — the EM sweeps embed a g×g grid in the top-left corner of the n×n
// circulant, so the remaining rows carry no information either way.
func (c *RefRealConv2D) Apply(src, dst []float64, rows int, s *RefConvScratch, correlate bool) {
	n := c.n
	if rows > n {
		rows = n
	}
	if n == 1 {
		dst[0] = src[0] * c.kre[0]
		return
	}
	c.forward2D(src, rows, s)
	c.multiplySpectrum(s, correlate)
	c.inverse2D(dst, rows, s)
}

// forward2D fills s.sre/s.sim with the half-spectrum of src (rows [0,
// rows) significant), in column-major layout: column kx ∈ [0, n/2] lives
// at s.sre[kx*n : (kx+1)*n].
func (c *RefRealConv2D) forward2D(src []float64, rows int, s *RefConvScratch) {
	n := c.n
	half := n / 2
	// Row pass: two real rows per complex FFT, two FFTs per interleaved
	// Forward2 call.
	r := 0
	for ; r+2 < rows; r += 4 {
		c.packRow(src, rows, r, s.zre, s.zim)
		c.packRow(src, rows, r+2, s.z2re, s.z2im)
		c.plan.Forward2(s.zre, s.zim, s.z2re, s.z2im)
		c.scatterRow(r, s.zre, s.zim, s)
		c.scatterRow(r+2, s.z2re, s.z2im, s)
	}
	if r < rows {
		c.packRow(src, rows, r, s.zre, s.zim)
		c.plan.Forward(s.zre, s.zim)
		c.scatterRow(r, s.zre, s.zim, s)
	}
	// Column pass: zero the unwritten tail rows, then transform each
	// spectral column (contiguous in this layout), pairwise.
	kx := 0
	for ; kx+1 <= half; kx += 2 {
		c1, c2 := kx*n, (kx+1)*n
		cre1 := s.sre[c1 : c1+n]
		cim1 := s.sim[c1 : c1+n]
		cre2 := s.sre[c2 : c2+n]
		cim2 := s.sim[c2 : c2+n]
		for t := rows; t < n; t++ {
			cre1[t] = 0
			cim1[t] = 0
			cre2[t] = 0
			cim2[t] = 0
		}
		c.plan.Forward2(cre1, cim1, cre2, cim2)
	}
	if kx <= half {
		col := kx * n
		cre := s.sre[col : col+n]
		cim := s.sim[col : col+n]
		for t := rows; t < n; t++ {
			cre[t] = 0
			cim[t] = 0
		}
		c.plan.Forward(cre, cim)
	}
}

// packRow loads the real row pair (r, r+1) into one complex signal,
// zero-filling rows beyond the significant range.
func (c *RefRealConv2D) packRow(src []float64, rows, r int, zre, zim []float64) {
	n := c.n
	copy(zre, src[r*n:(r+1)*n])
	if r+1 < rows {
		copy(zim, src[(r+1)*n:(r+2)*n])
	} else {
		for i := range zim {
			zim[i] = 0
		}
	}
}

// scatterRow separates a packed row pair's spectrum into its two
// Hermitian halves — X0 = (Z + conj(Z̃))/2, X1 = (Z − conj(Z̃))/2i — and
// scatters them into the spectral columns at rows r and r+1.
func (c *RefRealConv2D) scatterRow(r int, zre, zim []float64, s *RefConvScratch) {
	n := c.n
	half := n / 2
	mask := n - 1
	for kx := 0; kx <= half; kx++ {
		m := (n - kx) & mask
		ar, ai := zre[kx], zim[kx]
		br, bi := zre[m], -zim[m]
		col := kx * n
		s.sre[col+r] = (ar + br) / 2
		s.sim[col+r] = (ai + bi) / 2
		if r+1 < n {
			s.sre[col+r+1] = (ai - bi) / 2
			s.sim[col+r+1] = (br - ar) / 2
		}
	}
}

// multiplySpectrum multiplies the half-spectrum in s by the kernel
// spectrum (conjugated for correlation).
func (c *RefRealConv2D) multiplySpectrum(s *RefConvScratch, correlate bool) {
	if c.even {
		// Real kernel spectrum: conj(K) = K, one multiply per float.
		for i, k := range c.kre {
			s.sre[i] *= k
			s.sim[i] *= k
		}
		return
	}
	sign := 1.0
	if correlate {
		sign = -1
	}
	for i, kr := range c.kre {
		ki := sign * c.kim[i]
		ar, ai := s.sre[i], s.sim[i]
		s.sre[i] = ar*kr - ai*ki
		s.sim[i] = ar*ki + ai*kr
	}
}

// inverse2D inverts the half-spectrum in s back to real space, writing
// dst rows [0, rows).
func (c *RefRealConv2D) inverse2D(dst []float64, rows int, s *RefConvScratch) {
	n := c.n
	half := n / 2
	// Inverse column pass, pairwise. The 1/n scalings of both inverse
	// passes were folded into the kernel spectrum at construction, so the
	// raw (unscaled) transforms apply here and in the row pass below.
	kx := 0
	for ; kx+1 <= half; kx += 2 {
		c1, c2 := kx*n, (kx+1)*n
		c.plan.inverseRaw2(s.sre[c1:c1+n], s.sim[c1:c1+n], s.sre[c2:c2+n], s.sim[c2:c2+n])
	}
	if kx <= half {
		col := kx * n
		c.plan.inverseRaw(s.sre[col:col+n], s.sim[col:col+n])
	}
	// Inverse row pass: reconstruct the full row spectrum of a packed row
	// pair from the Hermitian halves, invert, and unpack two real rows —
	// again two packed pairs per interleaved call.
	r := 0
	for ; r+2 < rows; r += 4 {
		c.gatherRow(r, s.zre, s.zim, s)
		c.gatherRow(r+2, s.z2re, s.z2im, s)
		c.plan.inverseRaw2(s.zre, s.zim, s.z2re, s.z2im)
		c.unpackRow(dst, rows, r, s.zre, s.zim)
		c.unpackRow(dst, rows, r+2, s.z2re, s.z2im)
	}
	if r < rows {
		c.gatherRow(r, s.zre, s.zim, s)
		c.plan.inverseRaw(s.zre, s.zim)
		c.unpackRow(dst, rows, r, s.zre, s.zim)
	}
}

// gatherRow rebuilds the packed complex row spectrum Z = X0 + i·X1 for
// the row pair (r, r+1) from the Hermitian half-spectrum columns.
func (c *RefRealConv2D) gatherRow(r int, zre, zim []float64, s *RefConvScratch) {
	n := c.n
	half := n / 2
	r1 := r + 1
	if r1 >= n {
		r1 = r
	}
	for kx := 0; kx <= half; kx++ {
		col := kx * n
		zre[kx] = s.sre[col+r] - s.sim[col+r1]
		zim[kx] = s.sim[col+r] + s.sre[col+r1]
	}
	for kx := 1; kx < half; kx++ {
		col := kx * n
		// Z[n−kx] = conj(X0[kx]) + i·conj(X1[kx])
		zre[n-kx] = s.sre[col+r] + s.sim[col+r1]
		zim[n-kx] = -s.sim[col+r] + s.sre[col+r1]
	}
}

// unpackRow writes the two real rows of an inverted packed pair.
func (c *RefRealConv2D) unpackRow(dst []float64, rows, r int, zre, zim []float64) {
	n := c.n
	copy(dst[r*n:(r+1)*n], zre)
	if r+1 < rows {
		copy(dst[(r+1)*n:(r+2)*n], zim)
	}
}
