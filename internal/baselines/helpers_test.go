package baselines

import (
	"math"

	"dpspatial/internal/fo"
)

// Test-only accessors and checks: the package's tests use them to inspect
// live code, and no product code calls them.

// GeoIRatioHolds verifies the discretised channel's Geo-I guarantee
// within tol. The grid restriction renormalises each row by Z_i, so the
// exact bound on Pr[j|i1]/Pr[j|i2] is e^{ε·d(i1,i2)} · Z_{i2}/Z_{i1}
// (triangle inequality on the density, normaliser ratio folded in); the
// normaliser ratio itself is at most e^{ε·d(i1,i2)}, so the mechanism
// satisfies 2ε-Geo-I in the worst case and ε-Geo-I up to border effects —
// exactly the truncation caveat Andrés et al. note.
func (p *PlanarLaplace) GeoIRatioHolds(tol float64) bool {
	n := p.dom.NumCells()
	ch := p.Channel()
	// The kernel is 1 at zero displacement, so Pr[i|i] = 1/Z_i.
	norms := make([]float64, n)
	for i := range norms {
		norms[i] = 1 / ch.At(i, i)
	}
	for i1 := 0; i1 < n; i1++ {
		for i2 := i1 + 1; i2 < n; i2++ {
			normRatio := math.Max(norms[i1]/norms[i2], norms[i2]/norms[i1])
			bound := math.Exp(p.epsGeo*p.dom.CellAt(i1).CenterDist(p.dom.CellAt(i2))) * normRatio
			for j := 0; j < n; j++ {
				q1, q2 := ch.At(i1, j), ch.At(i2, j)
				if q1 == 0 || q2 == 0 {
					return false
				}
				ratio := q1 / q2
				if ratio < 1 {
					ratio = 1 / ratio
				}
				if ratio > bound*(1+tol) {
					return false
				}
			}
		}
	}
	return true
}

// Channel exposes the GRR channel over cells.
func (c *CFO) Channel() *fo.Channel { return c.grr.Channel() }
