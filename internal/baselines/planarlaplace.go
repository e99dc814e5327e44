package baselines

import (
	"fmt"
	"math"
	"sync"

	"dpspatial/internal/cellfo"
	"dpspatial/internal/grid"
)

// PlanarLaplace is the Geo-Indistinguishability mechanism of Andrés et
// al. (CCS 2013): a true location is perturbed by 2-D noise with density
// proportional to exp(−ε·r), which satisfies ε-Geo-I (per cell unit of
// distance here). The continuous report is re-bucketised onto the grid
// and decoded with EM against the cell-to-cell channel.
//
// The channel entry Pr[cell j | cell i] is the planar Laplace density at
// the destination cell centre times the unit cell area, renormalised —
// the standard midpoint discretisation, accurate to O(g²) and exact in
// the limit of fine grids.
type PlanarLaplace struct {
	*cellfo.Oracle // shared per (grid, ε)
	dom            grid.Domain
	epsGeo         float64
}

// plKey identifies one memoized oracle (grid.Domain is a small
// comparable value type).
type plKey struct {
	dom grid.Domain
	eps float64
}

var (
	plMu   sync.Mutex
	plMemo = map[plKey]*cellfo.Oracle{}
)

// NewPlanarLaplace builds the mechanism with per-cell-unit budget
// epsGeo > 0. The channel is cellfo.ExpKernel at rate ε, whose rows are
// the definitional exp(−ε·CenterDist)/Z_i bit for bit (pinned for every
// row by the package tests). The O(n²)-to-build oracle is memoized per
// (grid, ε) — the same memoization semgeoi.CalibrateToDAM uses — so
// repeated constructions (per-trial in the experiment harness,
// per-generation at the collector) share one channel and one set of
// alias tables.
func NewPlanarLaplace(dom grid.Domain, epsGeo float64) (*PlanarLaplace, error) {
	if epsGeo <= 0 || math.IsNaN(epsGeo) || math.IsInf(epsGeo, 0) {
		return nil, fmt.Errorf("baselines: invalid epsilon %v", epsGeo)
	}
	key := plKey{dom: dom, eps: epsGeo}
	plMu.Lock()
	oracle, ok := plMemo[key]
	plMu.Unlock()
	if !ok {
		ch, err := cellfo.ExpKernel(dom.D, epsGeo)
		if err != nil {
			return nil, fmt.Errorf("baselines: internal channel invalid: %w", err)
		}
		oracle = cellfo.New(dom, fmt.Sprintf("baselines/planarlaplace d=%d epsgeo=%g", dom.D, epsGeo), ch, nil)
		plMu.Lock()
		if prior, raced := plMemo[key]; raced {
			oracle = prior // a concurrent build won; adopt it
		} else {
			plMemo[key] = oracle
		}
		plMu.Unlock()
	}
	return &PlanarLaplace{Oracle: oracle, dom: dom, epsGeo: epsGeo}, nil
}

// Name returns the mechanism's display name.
func (p *PlanarLaplace) Name() string { return "PlanarLaplace" }
