// Package baselines implements the remaining comparison mechanisms of the
// paper's Table I that are not first-class contenders in the headline
// figures but anchor the design space:
//
//   - Bucket+CFO: the categorical frequency oracle applied to grid cells
//     (Wang et al. 2017) — the "spatial data as unrelated symbols"
//     strawman of Example 1;
//   - the planar Laplace mechanism of Geo-Indistinguishability (Andrés et
//     al., CCS 2013) — the continuous Geo-I reporter SEM-Geo-I refines.
//
// Both expose the same Estimator contract as the core mechanisms so the
// harness can ablate against them.
package baselines

import (
	"fmt"

	"dpspatial/internal/em"
	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
	"dpspatial/internal/rng"
)

// CFO is the Bucket+CFO baseline: generalized randomized response over
// the d² grid cells with EM decoding. It satisfies ε-LDP but ignores all
// spatial structure — a reported far-away cell is exactly as likely as a
// neighbouring one, the failure mode the paper's Example 1 illustrates.
type CFO struct {
	dom grid.Domain
	grr *fo.GRR
}

// NewCFO builds the categorical baseline.
func NewCFO(dom grid.Domain, eps float64) (*CFO, error) {
	n := dom.NumCells()
	if n < 2 {
		return nil, fmt.Errorf("baselines: CFO needs at least 2 cells")
	}
	grr, err := fo.NewGRR(n, eps)
	if err != nil {
		return nil, err
	}
	return &CFO{dom: dom, grr: grr}, nil
}

// Name returns the mechanism's display name.
func (c *CFO) Name() string { return "CFO" }

// Scheme implements fo.Reporter: the report format is the GRR output over
// the d² grid cells.
func (c *CFO) Scheme() string {
	return fmt.Sprintf("baselines/cfo d=%d eps=%g", c.dom.D, c.grr.Epsilon())
}

// NumInputs implements fo.Reporter.
func (c *CFO) NumInputs() int { return c.dom.NumCells() }

// ReportShape implements fo.Reporter: one plane of d² counts.
func (c *CFO) ReportShape() []int { return []int{c.dom.NumCells()} }

// Report implements fo.Reporter: one user's randomised-response output
// cell, drawn by the underlying GRR oracle.
func (c *CFO) Report(input int, r *rng.RNG) (fo.Report, error) {
	return c.grr.Report(input, r)
}

// NewAggregate allocates an empty aggregate for this mechanism's reports.
func (c *CFO) NewAggregate() *fo.Aggregate { return fo.NewAggregateFor(c) }

// EstimateFromAggregate decodes an accumulated aggregate (one shard or a
// merge of many) via EM on the two-valued GRR channel — the estimator
// stage of the report lifecycle.
func (c *CFO) EstimateFromAggregate(agg *fo.Aggregate) (*grid.Hist2D, error) {
	if err := agg.Compatible(c); err != nil {
		return nil, fmt.Errorf("baselines: %w", err)
	}
	est, err := em.Estimate(c.grr.Linear(), agg.Planes[0], nil)
	if err != nil {
		return nil, err
	}
	return grid.HistFromMass(c.dom, est)
}

// EstimateHist runs the full report lifecycle in-process: accumulate
// every user's report into one aggregate, then estimate from it. The
// report stream and output are byte-identical to the historical
// monolithic path.
func (c *CFO) EstimateHist(truth *grid.Hist2D, r *rng.RNG) (*grid.Hist2D, error) {
	if truth.Dom.D != c.dom.D {
		return nil, fmt.Errorf("baselines: histogram d=%d, mechanism d=%d", truth.Dom.D, c.dom.D)
	}
	agg := c.NewAggregate()
	if err := fo.Accumulate(c, agg, truth.Mass, r); err != nil {
		return nil, err
	}
	return c.EstimateFromAggregate(agg)
}
