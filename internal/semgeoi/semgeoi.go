// Package semgeoi implements the Subset Exponential Mechanism under
// ε-Geo-Indistinguishability (Wang et al., INFOCOM 2017; Andrés et al.,
// CCS 2013) — the paper's strongest comparator.
//
// The mechanism reports, for a true grid cell v, a subset of cells: a ball
// of k cells whose centre c is drawn from the planar exponential channel
// Pr[c | v] ∝ exp(−ε'·dis(c, v)/2), which satisfies ε'-Geo-I (distances in
// cell units). Because the ball shape is fixed, observing the subset is
// equivalent to observing its centre, so the per-centre channel matrix is
// exact and estimation runs EM on it.
//
// Substitution note (recorded in DESIGN.md): the original SEM enumerates
// arbitrary k-subsets, whose output space is n^k — the paper itself limits
// d when ε is small because of this blow-up. Ball-shaped subsets are the
// 2-D analogue of the ordinal intervals used in the 1-D SEM and keep the
// channel exact at every grid size. The subset size k defaults to
// max(1, n/e^ε) following the paper's complexity discussion.
package semgeoi

import (
	"fmt"
	"math"
	"sync"

	"dpspatial/internal/em"
	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
	"dpspatial/internal/localprivacy"
	"dpspatial/internal/rng"
	"dpspatial/internal/sam"
)

// Mechanism is the discrete SEM-Geo-I reporter/estimator over a d×d grid.
type Mechanism struct {
	dom     grid.Domain
	epsGeo  float64 // ε' per unit cell distance
	k       int     // subset size (ball cell count)
	channel *fo.ConvChannel

	samplersOnce sync.Once
	samplers     []*rng.Alias
	samplersErr  error

	denseOnce sync.Once
	dense     *fo.Channel
}

// New builds SEM-Geo-I with per-cell-unit budget epsGeo > 0. The subset
// size is k = max(1, n/e^ε'), which lies in [1, n] for every ε' > 0.
func New(dom grid.Domain, epsGeo float64) (*Mechanism, error) {
	if epsGeo <= 0 || math.IsNaN(epsGeo) || math.IsInf(epsGeo, 0) {
		return nil, fmt.Errorf("semgeoi: invalid epsilon %v", epsGeo)
	}
	k := int(math.Max(1, float64(dom.NumCells())/math.Exp(epsGeo)))
	m := &Mechanism{dom: dom, epsGeo: epsGeo, k: k}
	if err := m.buildChannel(); err != nil {
		return nil, fmt.Errorf("semgeoi: internal channel invalid: %w", err)
	}
	return m, nil
}

// buildChannel installs the exact per-centre channel: outputs are the
// same d×d cells (subset centres clamp to the grid).
//
// The kernel exp(−ε'·dis/2) depends only on the cell displacement, so
// the channel factors as diag(1/z_i)·K with K translation-invariant
// everywhere — including the borders, which only change the per-row
// normaliser. The convolutional form (fo.ConvChannel) exploits that for
// O(n log n) EM sweeps; its rows reproduce the definitional row
// exp(−ε'·CenterDist/2)/z_i bit for bit (same kernel bits, same
// row-major summation order), which the package tests pin for every row.
func (m *Mechanism) buildChannel() error {
	d := m.dom.D
	kern := fo.DisplacementKernel(d, func(dx, dy int) float64 {
		return math.Exp(-m.epsGeo * math.Hypot(float64(dx), float64(dy)) / 2)
	})
	conv, err := fo.NewConvChannel(d, kern)
	if err != nil {
		return err
	}
	m.channel = conv
	return conv.Validate()
}

// Name returns the mechanism's display name.
func (m *Mechanism) Name() string { return "SEM-Geo-I" }

// NumInputs returns d².
func (m *Mechanism) NumInputs() int { return m.dom.NumCells() }

// NumOutputs returns the number of distinct subset centres (d²).
func (m *Mechanism) NumOutputs() int { return m.dom.NumCells() }

// Channel exposes the exact per-centre channel as a dense matrix
// (read-only), materialised lazily from the convolutional rows. Callers
// that only sweep should prefer Linear.
func (m *Mechanism) Channel() *fo.Channel {
	m.denseOnce.Do(func() { m.dense = m.channel.Dense() })
	return m.dense
}

// Linear exposes the channel in its operative, convolutional form.
func (m *Mechanism) Linear() fo.LinearChannel { return m.channel }

// Samplers returns the per-input-cell alias tables, building them once on
// first use. The returned slice is shared; treat it as read-only.
func (m *Mechanism) Samplers() ([]*rng.Alias, error) {
	m.samplersOnce.Do(func() {
		m.samplers, m.samplersErr = m.channel.Samplers()
	})
	return m.samplers, m.samplersErr
}

// Scheme implements fo.Reporter.
func (m *Mechanism) Scheme() string {
	return fmt.Sprintf("semgeoi d=%d epsGeo=%g k=%d", m.dom.D, m.epsGeo, m.k)
}

// ReportShape implements fo.Reporter: one plane of subset-centre counts.
func (m *Mechanism) ReportShape() []int { return []int{m.NumOutputs()} }

// Report implements fo.Reporter: one user's noisy subset centre, drawn
// through the cached alias samplers.
func (m *Mechanism) Report(input int, r *rng.RNG) (fo.Report, error) {
	samplers, err := m.Samplers()
	if err != nil {
		return fo.Report{}, err
	}
	if input < 0 || input >= len(samplers) {
		return fo.Report{}, fmt.Errorf("semgeoi: input cell %d outside [0, %d)", input, len(samplers))
	}
	return fo.SingleIndexReport(samplers[input].Draw(r)), nil
}

// NewAggregate allocates an empty aggregate for this mechanism's reports.
func (m *Mechanism) NewAggregate() *fo.Aggregate { return fo.NewAggregateFor(m) }

// Estimate recovers the input distribution from per-centre counts via EM.
func (m *Mechanism) Estimate(counts []float64) ([]float64, error) {
	return em.Estimate(m.channel, counts, nil)
}

// EstimateFromAggregate decodes an accumulated aggregate (one shard or a
// merge of many) into the estimated input distribution via EM.
func (m *Mechanism) EstimateFromAggregate(agg *fo.Aggregate) (*grid.Hist2D, error) {
	if err := agg.Compatible(m); err != nil {
		return nil, fmt.Errorf("semgeoi: %w", err)
	}
	est, err := m.Estimate(agg.Planes[0])
	if err != nil {
		return nil, err
	}
	return grid.HistFromMass(m.dom, est)
}

// EstimateHist runs the full report lifecycle in-process: every user's
// report accumulates into one aggregate, then EM estimates from it.
func (m *Mechanism) EstimateHist(truth *grid.Hist2D, r *rng.RNG) (*grid.Hist2D, error) {
	if truth.Dom.D != m.dom.D {
		return nil, fmt.Errorf("semgeoi: histogram d=%d, mechanism d=%d", truth.Dom.D, m.dom.D)
	}
	agg := m.NewAggregate()
	if err := fo.Accumulate(m, agg, truth.Mass, r); err != nil {
		return nil, err
	}
	return m.EstimateFromAggregate(agg)
}

// calibrationKey identifies one CalibrateToDAM result. Both the DAM target
// and the SEM-Geo-I channels depend on the domain only through its grid
// side d (all distances are in cell units), so one bisection serves
// every domain with the same (d, ε).
type calibrationKey struct {
	d   int
	eps float64
}

var (
	calibrationMu   sync.Mutex
	calibrationMemo = map[calibrationKey]float64{}
)

// CalibrateToDAM returns the Geo-I budget ε' at which SEM-Geo-I's LP
// on a d×d grid equals that of DAM with budget eps — the paper's
// apples-to-apples comparison setting. The bisection (60 iterations,
// each building a full channel) runs once per (d, ε); repeated calls
// return the memoized budget. On a grid where DAM leaks nothing (d = 1:
// every mechanism is the constant channel) there is no target to match,
// so eps itself is returned.
func CalibrateToDAM(d int, eps float64) (float64, error) {
	key := calibrationKey{d: d, eps: eps}
	calibrationMu.Lock()
	epsGeo, ok := calibrationMemo[key]
	calibrationMu.Unlock()
	if ok {
		return epsGeo, nil
	}
	epsGeo, err := calibrateToDAM(d, eps)
	if err != nil {
		return 0, err
	}
	calibrationMu.Lock()
	calibrationMemo[key] = epsGeo
	calibrationMu.Unlock()
	return epsGeo, nil
}

func calibrateToDAM(d int, eps float64) (float64, error) {
	dom, err := grid.NewDomain(0, 0, float64(d), d)
	if err != nil {
		return 0, err
	}
	dam, err := sam.NewDAM(dom, eps)
	if err != nil {
		return 0, err
	}
	target, err := localprivacy.Compute(dom, dam.Channel())
	if err != nil {
		return 0, err
	}
	if target <= 0 {
		return eps, nil
	}
	return localprivacy.Calibrate(dom, target, func(x float64) (*fo.Channel, error) {
		m, err := New(dom, x)
		if err != nil {
			return nil, err
		}
		return m.Channel(), nil
	}, 1e-2, 60)
}
