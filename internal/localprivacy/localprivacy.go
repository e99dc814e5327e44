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

// Compute evaluates Equation (16) for a row-stochastic channel whose
// inputs are the cells of dom (uniform prior):
//
//	LP = Σ_{i'} 1/(n·Σ_ĵ Pr(i'|ĵ)) · Σ_{i,î} Pr(i'|i)·Pr(i'|î)·d(î,i)
//
// with d the Euclidean distance between cell centres in cell units. Larger
// LP means more privacy (the adversary's expected error is larger). A
// channel with a negative, NaN or infinite entry, or a row that does not
// sum to 1, is refused.
//
// Each output column's double sum adds its terms in (i, î) order and the
// column terms are added in column order, so the result does not depend
// on the worker count. Columns are evaluated four to a pass, each into
// its own accumulator, which lets their add chains overlap.
func Compute(dom grid.Domain, ch *fo.Channel) (float64, error) {
	return newEvaluator(dom).lp(ch)
}

// Calibrate finds the parameter value x (for example SEM-Geo-I's ε') at
// which the channel produced by build has local privacy equal to target,
// by bisection over [lo, hi]. LP must be monotone decreasing in x (more
// budget ⇒ less privacy), which holds for every mechanism family in this
// repository. The distance matrix and column buffer are built once per
// call and reused by every evaluation of its bisection.
func Calibrate(dom grid.Domain, target float64, build func(x float64) (*fo.Channel, error), lo, hi float64) (float64, error) {
	if target <= 0 || math.IsNaN(target) {
		return 0, fmt.Errorf("localprivacy: invalid target %v", target)
	}
	if lo <= 0 || hi <= lo {
		return 0, fmt.Errorf("localprivacy: invalid bracket [%v, %v]", lo, hi)
	}
	e := newEvaluator(dom)
	lpAt := func(x float64) (float64, error) {
		ch, err := build(x)
		if err != nil {
			return 0, err
		}
		return e.lp(ch)
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

// blockCols is the number of output columns one pass over the (i, î)
// pairs evaluates; block is unrolled for exactly this many. Eight
// columns spill amd64's 16 vector registers and run slower than four.
const blockCols = 4

// evaluator holds what LP evaluations on one domain share: the pairwise
// cell distances and a buffer for the channel's columns. It serves one
// evaluation at a time.
type evaluator struct {
	n    int
	dist []float64 // n×n, row-major
	cols []float64 // the channel transposed: column o at [o·n, (o+1)·n)
}

func newEvaluator(dom grid.Domain) *evaluator {
	n := dom.NumCells()
	dist := make([]float64, n*n)
	for i := 0; i < n; i++ {
		ci := dom.CellAt(i)
		for j := 0; j < n; j++ {
			dist[i*n+j] = ci.CenterDist(dom.CellAt(j))
		}
	}
	return &evaluator{n: n, dist: dist}
}

// lp evaluates Equation (16) for ch; see Compute.
func (e *evaluator) lp(ch *fo.Channel) (float64, error) {
	n := e.n
	if ch.In != n {
		return 0, fmt.Errorf("localprivacy: channel has %d inputs for %d cells", ch.In, n)
	}
	// The kernel adds every term, where a zero entry's is +0: that
	// leaves each sum unchanged only for finite non-negative entries.
	if err := ch.Validate(); err != nil {
		return 0, fmt.Errorf("localprivacy: %w", err)
	}

	// Copy the columns out contiguously, with zero columns padding the
	// last block; a zero column's term is 0, as an unreachable output's.
	blocks := (ch.Out + blockCols - 1) / blockCols
	size := blocks * blockCols * n
	if cap(e.cols) < size {
		e.cols = make([]float64, size)
	}
	cols := e.cols[:size]
	for o := 0; o < ch.Out; o++ {
		col := cols[o*n:][:n]
		for i := range col {
			col[i] = ch.At(i, o)
		}
	}
	clear(cols[ch.Out*n:])

	// Blocks of columns are independent; fan them out across workers.
	// Each column's term lands in its own slot and the slots are added
	// in column order.
	workers := min(runtime.GOMAXPROCS(0), blocks)
	terms := make([]float64, blocks*blockCols)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := w; b < blocks; b += workers {
				o := b * blockCols
				e.block(cols[o*n:(o+blockCols)*n], terms[o:o+blockCols])
			}
		}(w)
	}
	wg.Wait()
	lp := 0.0
	for _, t := range terms[:ch.Out] {
		lp += t
	}
	return lp, nil
}

// block writes the LP terms of the blockCols columns stored in cols into
// terms: column k's double sum Σ_i Σ_î c_k[i]·c_k[î]·d(i, î), in (i, î)
// order, over n·Σ_i c_k[i]. A column that sums to 0 is unreachable and
// its term is 0.
func (e *evaluator) block(cols, terms []float64) {
	n := e.n
	c0, c1, c2, c3 := cols[:n], cols[n:][:n], cols[2*n:][:n], cols[3*n:][:n]
	var s0, s1, s2, s3 float64
	for i := 0; i < n; i++ {
		p0, p1, p2, p3 := c0[i], c1[i], c2[i], c3[i]
		row := e.dist[i*n:][:n]
		for j, r := range row {
			s0 += p0 * c0[j] * r
			s1 += p1 * c1[j] * r
			s2 += p2 * c2[j] * r
			s3 += p3 * c3[j] * r
		}
	}
	fn := float64(n)
	for k, s := range [blockCols]float64{s0, s1, s2, s3} {
		colSum := 0.0
		for _, v := range cols[k*n : (k+1)*n] {
			colSum += v
		}
		if colSum != 0 {
			terms[k] = s / (fn * colSum)
		}
	}
}
