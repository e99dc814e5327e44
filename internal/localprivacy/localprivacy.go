// Package localprivacy implements the Local Privacy (LP) metric of Shokri
// et al. (CCS 2012) as used in Section VII-B (Equations 15–16) to put
// ε-LDP mechanisms (DAM) and ε-Geo-I mechanisms (SEM-Geo-I) on a common
// privacy scale: LP is the expected 2-norm error of a Bayesian adversary
// who observes one noisy report under a uniform prior over input cells.
// Two mechanisms with equal LP leak the same amount of location
// information to this adversary, so their utilities are comparable.
package localprivacy

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
)

// Compute evaluates Equation (16) for a channel whose inputs are the cells
// of dom (uniform prior):
//
//	LP = Σ_{i'} 1/(n·Σ_ĵ Pr(i'|ĵ)) · Σ_{i,î} Pr(i'|i)·Pr(i'|î)·d(î,i)
//
// with d the Euclidean distance between cell centres in cell units. Larger
// LP means more privacy (the adversary's expected error is larger).
func Compute(dom grid.Domain, ch *fo.Channel) (float64, error) {
	n := dom.NumCells()
	if ch.In != n {
		return 0, fmt.Errorf("localprivacy: channel has %d inputs for %d cells", ch.In, n)
	}

	// Pairwise distances.
	dist := make([]float64, n*n)
	for i := 0; i < n; i++ {
		ci := dom.CellAt(i)
		for j := 0; j < n; j++ {
			dist[i*n+j] = ci.CenterDist(dom.CellAt(j))
		}
	}

	// Each output column contributes independently; fan the O(n²) inner
	// sums out across workers (the harness calls this inside a
	// calibration bisection, so it is the hot path at d ≥ 15). Each
	// column's term lands in its own slot and the slots are added in
	// column order, so the result does not depend on the worker count.
	fn := float64(n)
	workers := runtime.GOMAXPROCS(0)
	if workers > ch.Out {
		workers = ch.Out
	}
	terms := make([]float64, ch.Out)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for o := w; o < ch.Out; o += workers {
				colSum := 0.0
				for i := 0; i < n; i++ {
					colSum += ch.At(i, o)
				}
				if colSum == 0 {
					continue // unreachable output
				}
				inner := 0.0
				for i := 0; i < n; i++ {
					pi := ch.At(i, o)
					if pi == 0 {
						continue
					}
					row := dist[i*n:]
					for j := 0; j < n; j++ {
						pj := ch.At(j, o)
						if pj == 0 {
							continue
						}
						inner += pi * pj * row[j]
					}
				}
				terms[o] = inner / (fn * colSum)
			}
		}(w)
	}
	wg.Wait()
	lp := 0.0
	for _, t := range terms {
		lp += t
	}
	return lp, nil
}

// Calibrate finds the parameter value x (for example SEM-Geo-I's ε') at
// which the channel produced by build has local privacy equal to target,
// by bisection over [lo, hi]. LP must be monotone decreasing in x (more
// budget ⇒ less privacy), which holds for every mechanism family in this
// repository.
func Calibrate(dom grid.Domain, target float64, build func(x float64) (*fo.Channel, error), lo, hi float64) (float64, error) {
	if target <= 0 || math.IsNaN(target) {
		return 0, fmt.Errorf("localprivacy: invalid target %v", target)
	}
	if lo <= 0 || hi <= lo {
		return 0, fmt.Errorf("localprivacy: invalid bracket [%v, %v]", lo, hi)
	}
	lpAt := func(x float64) (float64, error) {
		ch, err := build(x)
		if err != nil {
			return 0, err
		}
		return Compute(dom, ch)
	}
	lpLo, err := lpAt(lo)
	if err != nil {
		return 0, err
	}
	lpHi, err := lpAt(hi)
	if err != nil {
		return 0, err
	}
	// lpLo is the most private end (small budget), lpHi the least.
	if target >= lpLo {
		return lo, nil
	}
	if target <= lpHi {
		return hi, nil
	}
	for iter := 0; iter < 60; iter++ {
		mid := math.Sqrt(lo * hi) // log-space bisection
		lpMid, err := lpAt(mid)
		if err != nil {
			return 0, err
		}
		if math.Abs(lpMid-target) <= 1e-9*math.Max(1, target) {
			return mid, nil
		}
		if lpMid > target {
			lo = mid
		} else {
			hi = mid
		}
		if hi/lo < 1+1e-12 {
			break
		}
	}
	return math.Sqrt(lo * hi), nil
}
