package baselines

import (
	"fmt"
	"math"
	"sync"

	"dpspatial/internal/em"
	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
	"dpspatial/internal/rng"
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
	dom    grid.Domain
	epsGeo float64
	state  *plState // shared channel state, memoized per (grid, ε)
}

// plState is the channel state shared by every PlanarLaplace instance
// with the same grid and budget: the convolutional channel and the
// lazily-built alias samplers. All fields are built once and read-only
// afterwards, so sharing across mechanisms — and across goroutines — is
// safe.
type plState struct {
	channel *fo.ConvChannel

	samplersOnce sync.Once
	samplers     []*rng.Alias
	samplersErr  error
}

// plKey identifies one memoized channel build (grid.Domain is a small
// comparable value type).
type plKey struct {
	dom grid.Domain
	eps float64
}

var (
	plMu   sync.Mutex
	plMemo = map[plKey]*plState{}
)

// NewPlanarLaplace builds the mechanism with per-cell-unit budget
// epsGeo > 0. The O(n²)-to-build channel is memoized per (grid, ε) —
// the same memoization semgeoi.CalibrateToDAM uses — so repeated
// constructions (per-trial in the experiment harness, per-generation at
// the collector) reuse one shared, immutable channel.
func NewPlanarLaplace(dom grid.Domain, epsGeo float64) (*PlanarLaplace, error) {
	if epsGeo <= 0 || math.IsNaN(epsGeo) || math.IsInf(epsGeo, 0) {
		return nil, fmt.Errorf("baselines: invalid epsilon %v", epsGeo)
	}
	key := plKey{dom: dom, eps: epsGeo}
	plMu.Lock()
	state, ok := plMemo[key]
	plMu.Unlock()
	if !ok {
		var err error
		state, err = buildPLState(dom, epsGeo)
		if err != nil {
			return nil, fmt.Errorf("baselines: internal channel invalid: %w", err)
		}
		plMu.Lock()
		if prior, raced := plMemo[key]; raced {
			state = prior // a concurrent build won; adopt it
		} else {
			plMemo[key] = state
		}
		plMu.Unlock()
	}
	return &PlanarLaplace{dom: dom, epsGeo: epsGeo, state: state}, nil
}

// buildPLState constructs the channel. The planar-Laplace kernel
// exp(−ε·dis) depends only on the cell displacement — grid borders
// change only the per-row normaliser Z_i — so the convolutional channel
// applies, with rows bit-identical to the definitional
// exp(−ε·CenterDist)/Z_i (pinned for every row by the package tests).
func buildPLState(dom grid.Domain, epsGeo float64) (*plState, error) {
	kern := fo.DisplacementKernel(dom.D, func(dx, dy int) float64 {
		return math.Exp(-epsGeo * math.Hypot(float64(dx), float64(dy)))
	})
	conv, err := fo.NewConvChannel(dom.D, kern)
	if err != nil {
		return nil, err
	}
	if err := conv.Validate(); err != nil {
		return nil, err
	}
	return &plState{channel: conv}, nil
}

// Name returns the mechanism's display name.
func (p *PlanarLaplace) Name() string { return "PlanarLaplace" }

// Samplers returns the per-input-cell alias tables for O(1) perturbation,
// building them once on first use (the old per-EstimateHist rebuild paid
// the full O(d⁴) table construction on every call). The tables are built
// from the validated channel rows, so draws are bit-identical to the
// per-call tables'. The returned slice is shared; treat it as read-only.
func (p *PlanarLaplace) Samplers() ([]*rng.Alias, error) {
	s := p.state
	s.samplersOnce.Do(func() {
		s.samplers, s.samplersErr = s.channel.Samplers()
	})
	return s.samplers, s.samplersErr
}

// Scheme implements fo.Reporter: the report format is the discretised
// planar-Laplace channel over the d² grid cells.
func (p *PlanarLaplace) Scheme() string {
	return fmt.Sprintf("baselines/planarlaplace d=%d epsgeo=%g", p.dom.D, p.epsGeo)
}

// NumInputs implements fo.Reporter.
func (p *PlanarLaplace) NumInputs() int { return p.dom.NumCells() }

// ReportShape implements fo.Reporter: one plane of d² counts.
func (p *PlanarLaplace) ReportShape() []int { return []int{p.dom.NumCells()} }

// Report implements fo.Reporter: one user's perturbed cell through the
// cached alias samplers — the same draw stream EstimateHist has always
// consumed.
func (p *PlanarLaplace) Report(input int, r *rng.RNG) (fo.Report, error) {
	samplers, err := p.Samplers()
	if err != nil {
		return fo.Report{}, err
	}
	if input < 0 || input >= len(samplers) {
		return fo.Report{}, fmt.Errorf("baselines: input cell %d outside [0, %d)", input, len(samplers))
	}
	return fo.SingleIndexReport(samplers[input].Draw(r)), nil
}

// NewAggregate allocates an empty aggregate for this mechanism's reports.
func (p *PlanarLaplace) NewAggregate() *fo.Aggregate { return fo.NewAggregateFor(p) }

// EstimateFromAggregate decodes an accumulated aggregate (one shard or a
// merge of many) via EM on the dense cell channel — the estimator stage
// of the report lifecycle.
func (p *PlanarLaplace) EstimateFromAggregate(agg *fo.Aggregate) (*grid.Hist2D, error) {
	if err := agg.Compatible(p); err != nil {
		return nil, fmt.Errorf("baselines: %w", err)
	}
	est, err := em.Estimate(p.state.channel, agg.Planes[0], nil)
	if err != nil {
		return nil, err
	}
	return grid.HistFromMass(p.dom, est)
}

// EstimateHist runs the full report lifecycle in-process: accumulate
// every user's report into one aggregate, then estimate from it. The
// report stream and output are byte-identical to the historical
// monolithic path.
func (p *PlanarLaplace) EstimateHist(truth *grid.Hist2D, r *rng.RNG) (*grid.Hist2D, error) {
	if truth.Dom.D != p.dom.D {
		return nil, fmt.Errorf("baselines: histogram d=%d, mechanism d=%d", truth.Dom.D, p.dom.D)
	}
	agg := p.NewAggregate()
	if err := fo.Accumulate(p, agg, truth.Mass, r); err != nil {
		return nil, err
	}
	return p.EstimateFromAggregate(agg)
}
