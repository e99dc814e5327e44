package mdsw

import (
	"fmt"
	"math"

	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
	"dpspatial/internal/rng"
)

// MDSW is the multi-dimensional Square Wave mechanism: the privacy budget
// is split evenly between the two coordinates (sequential composition, so
// the whole report satisfies ε-LDP), each marginal is estimated with
// SW-EMS, and the joint is reconstructed as the product of marginals.
type MDSW struct {
	dom grid.Domain
	eps float64
	swx *SW
	swy *SW
}

// NewMDSW builds the 2-D mechanism over the domain's d×d grid.
func NewMDSW(dom grid.Domain, eps float64) (*MDSW, error) {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("mdsw: invalid epsilon %v", eps)
	}
	swx, err := NewSW(dom.D, eps/2)
	if err != nil {
		return nil, err
	}
	swy, err := NewSW(dom.D, eps/2)
	if err != nil {
		return nil, err
	}
	return &MDSW{dom: dom, eps: eps, swx: swx, swy: swy}, nil
}

// Name returns the mechanism's display name.
func (m *MDSW) Name() string { return "MDSW" }

// AxisReport is one user's noisy output: a perturbed bucket per
// dimension.
type AxisReport struct {
	X, Y int
}

// Perturb randomises one user's cell (given as a flat input index).
func (m *MDSW) Perturb(input int, r *rng.RNG) AxisReport {
	c := m.dom.CellAt(input)
	return AxisReport{X: m.swx.Perturb(c.X, r), Y: m.swy.Perturb(c.Y, r)}
}

// NumInputs implements fo.Reporter.
func (m *MDSW) NumInputs() int { return m.dom.NumCells() }

// Scheme implements fo.Reporter.
func (m *MDSW) Scheme() string { return fmt.Sprintf("mdsw d=%d eps=%g", m.dom.D, m.eps) }

// ReportShape implements fo.Reporter: two merge-compatible planes, the X
// and Y marginal output buckets of one ε-LDP report.
func (m *MDSW) ReportShape() []int {
	return []int{m.swx.NumOutputs(), m.swy.NumOutputs()}
}

// Report implements fo.Reporter: both axis draws of one user, packaged
// as a two-plane report (same RNG consumption as Perturb, so sequential
// pipelines stay byte-identical).
func (m *MDSW) Report(input int, r *rng.RNG) (fo.Report, error) {
	if input < 0 || input >= m.dom.NumCells() {
		return fo.Report{}, fmt.Errorf("mdsw: input cell %d outside [0, %d)", input, m.dom.NumCells())
	}
	rep := m.Perturb(input, r)
	return fo.Report{Planes: [][]int{{rep.X}, {rep.Y}}}, nil
}

// NewAggregate allocates an empty two-plane aggregate for this
// mechanism's reports.
func (m *MDSW) NewAggregate() *fo.Aggregate { return fo.NewAggregateFor(m) }

// EstimateFromAggregate decodes an accumulated two-plane aggregate (one
// shard or a merge of many): estimate both marginals with SW-EMS and
// return the product joint over the input grid.
func (m *MDSW) EstimateFromAggregate(agg *fo.Aggregate) (*grid.Hist2D, error) {
	if err := agg.Compatible(m); err != nil {
		return nil, fmt.Errorf("mdsw: %w", err)
	}
	fx, err := m.swx.Estimate(agg.Planes[0])
	if err != nil {
		return nil, err
	}
	fy, err := m.swy.Estimate(agg.Planes[1])
	if err != nil {
		return nil, err
	}
	est := grid.NewHist(m.dom)
	for y := 0; y < m.dom.D; y++ {
		for x := 0; x < m.dom.D; x++ {
			est.Mass[y*m.dom.D+x] = fx[x] * fy[y]
		}
	}
	return est, nil
}

// EstimateHist runs the full report lifecycle on a true count histogram:
// every user's two-axis report accumulates into one aggregate, which is
// then decoded marginal-by-marginal.
func (m *MDSW) EstimateHist(truth *grid.Hist2D, r *rng.RNG) (*grid.Hist2D, error) {
	if truth.Dom.D != m.dom.D {
		return nil, fmt.Errorf("mdsw: histogram d=%d, mechanism d=%d", truth.Dom.D, m.dom.D)
	}
	agg := m.NewAggregate()
	if err := fo.Accumulate(m, agg, truth.Mass, r); err != nil {
		return nil, err
	}
	return m.EstimateFromAggregate(agg)
}
