package fft

// Test-only accessors and checks: the package's tests use them to inspect
// live code, and no product code calls them.

// forwardSignals computes the unscaled forward DFT of lanes signals in
// place, signal s at re[s*n:(s+1)*n], im[s*n:(s+1)*n]: X_k = Σ_j x_j ·
// e^{-2πijk/n}. It runs the plan's batched stages behind a per-signal
// bit-reversal and first stage, as the convolver's passes do.
func (p *Plan) forwardSignals(re, im []float64, lanes int) {
	n, half := p.n, p.n/2
	if n == 1 {
		return
	}
	br := make([]float64, n*lanes)
	bi := make([]float64, n*lanes)
	for s := 0; s < lanes; s++ {
		xr, xi := re[s*n:(s+1)*n], im[s*n:(s+1)*n]
		for m, j := range p.rev {
			a := 2 * m * lanes
			br[a+s], bi[a+s] = xr[j]+xr[j+half], xi[j]+xi[j+half]
			br[a+lanes+s], bi[a+lanes+s] = xr[j]-xr[j+half], xi[j]-xi[j+half]
		}
	}
	p.stages(br, bi, lanes, n)
	for s := 0; s < lanes; s++ {
		for k := 0; k < n; k++ {
			re[s*n+k], im[s*n+k] = br[k*lanes+s], bi[k*lanes+s]
		}
	}
}

// Inverse computes the scaled inverse DFT of lanes signals in place:
// x_j = (1/n) Σ_k X_k · e^{+2πijk/n}. It uses the swap identity
// IDFT(X) = swap(DFT(swap(X)))/n, as the convolver's inverse passes do.
func (p *Plan) Inverse(re, im []float64, lanes int) {
	p.forwardSignals(im, re, lanes)
	s := p.inv
	for i := range re[:p.n*lanes] {
		re[i] *= s
		im[i] *= s
	}
}
