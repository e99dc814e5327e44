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

	"dpspatial/internal/cellfo"
	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
	"dpspatial/internal/localprivacy"
	"dpspatial/internal/sam"
)

// Mechanism is the discrete SEM-Geo-I reporter/estimator over a d×d
// grid: a per-cell frequency oracle whose outputs are the same d×d cells
// (subset centres clamp to the grid).
type Mechanism struct {
	*cellfo.Oracle
	dom    grid.Domain
	epsGeo float64 // ε' per unit cell distance
	k      int     // subset size (ball cell count)
}

// New builds SEM-Geo-I with per-cell-unit budget epsGeo > 0. The subset
// size is k = max(1, n/e^ε'), which lies in [1, n] for every ε' > 0.
// The channel is cellfo.ExpKernel at rate ε'/2, whose rows reproduce
// the definitional exp(−ε'·CenterDist/2)/z_i bit for bit (halving is
// exact in binary floating point), which the package tests pin for
// every row.
func New(dom grid.Domain, epsGeo float64) (*Mechanism, error) {
	if epsGeo <= 0 || math.IsNaN(epsGeo) || math.IsInf(epsGeo, 0) {
		return nil, fmt.Errorf("semgeoi: invalid epsilon %v", epsGeo)
	}
	k := int(math.Max(1, float64(dom.NumCells())/math.Exp(epsGeo)))
	ch, err := cellfo.ExpKernel(dom.D, epsGeo/2)
	if err != nil {
		return nil, fmt.Errorf("semgeoi: internal channel invalid: %w", err)
	}
	scheme := fmt.Sprintf("semgeoi d=%d epsGeo=%g k=%d", dom.D, epsGeo, k)
	return &Mechanism{Oracle: cellfo.New(dom, scheme, ch, nil), dom: dom, epsGeo: epsGeo, k: k}, nil
}

// Name returns the mechanism's display name.
func (m *Mechanism) Name() string { return "SEM-Geo-I" }

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
