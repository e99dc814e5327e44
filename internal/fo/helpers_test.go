package fo

import (
	"fmt"
	"math"
)

// Test-only accessors and checks: the package's tests use them to inspect
// live code, and no product code calls them.

// MaxRatio returns the worst-case likelihood ratio over materialised
// rows, as Channel.MaxRatio.
func (c *ConvChannel) MaxRatio() float64 { return maxRatioByRows(c) }

// TruthProb returns p, the probability of reporting truthfully.
func (g *GRR) TruthProb() float64 { return g.p }

// MaxRatio returns the worst-case likelihood ratio, as Channel.MaxRatio,
// working off materialised rows on demand (no dense matrix is retained).
func (u *UniformSparse) MaxRatio() float64 { return maxRatioByRows(u) }

// Validate checks the row-distribution invariant (guaranteed by
// construction; provided for interface parity).
func (t *TwoValue) Validate() error {
	if sum := t.diag + float64(t.k-1)*t.off; math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("fo: two-value row sums to %v", sum)
	}
	return nil
}

// MaxRatio returns the closed-form worst-case likelihood ratio diag/off
// (+Inf when off = 0 and k > 1).
func (t *TwoValue) MaxRatio() float64 {
	if t.k == 1 {
		return 1
	}
	hi, lo := t.diag, t.off
	if hi < lo {
		hi, lo = lo, hi
	}
	if lo == 0 {
		if hi == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return hi / lo
}

// EstimateAggregate recovers frequencies from an accumulated aggregate,
// using the aggregate's report count as the user total.
func (o *OUE) EstimateAggregate(agg *Aggregate) ([]float64, error) {
	if err := agg.Compatible(o); err != nil {
		return nil, err
	}
	return o.EstimateBits(agg.Planes[0], agg.N)
}
