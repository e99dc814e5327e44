package fft

// Test-only accessors and checks: the package's tests use them to inspect
// live code, and no product code calls them.

// Inverse computes the scaled inverse DFT of re/im in place:
// x_j = (1/n) Σ_k X_k · e^{+2πijk/n}. It uses the swap identity
// IDFT(X) = swap(DFT(swap(X)))/n, so Forward and Inverse share one
// twiddle table and one code path.
func (p *Plan) Inverse(re, im []float64) {
	p.Forward(im, re)
	s := p.inv
	for i := range re[:p.n] {
		re[i] *= s
		im[i] *= s
	}
}
