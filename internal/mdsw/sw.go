// Package mdsw implements the Multi-dimensional Square Wave baseline of
// Yang et al. (VLDB 2020), built on the Square Wave mechanism with
// EM-Smoothing estimation of Li et al. (SIGMOD 2020): each spatial
// coordinate is perturbed independently with half the privacy budget and
// the joint distribution is recovered as the product of the per-dimension
// EMS estimates. This is the paper's MDSW comparator — it preserves ordinal
// structure within each axis but loses the cross-dimension correlation,
// which is exactly the weakness DAM addresses.
package mdsw

import (
	"fmt"
	"math"
	"sync"

	"dpspatial/internal/em"
	"dpspatial/internal/fo"
	"dpspatial/internal/rng"
)

// SW is the 1-D Square Wave mechanism over a domain discretised into d
// buckets of width 1/d (input domain [0,1]).
//
// A value v reports within distance b with density p = e^ε·q and elsewhere
// in [−b, 1+b] with density q = 1/(2be^ε + 1); the wave width is the
// information-optimal b of Li et al.:
//
//	b = (ε·e^ε − e^ε + 1) / (2e^ε·(e^ε − 1 − ε)).
type SW struct {
	d   int
	eps float64
	b   float64 // wave half-width in [0,1] units
	pad int     // output buckets added on each side
	// linear is the exact bucket channel in uniform-plus-sparse form:
	// each row is the pure-low integral everywhere except the buckets
	// touched by the high-density window or the domain-edge clipping.
	// Estimation runs on it; the dense matrix materialises only on
	// demand.
	linear *fo.UniformSparse

	denseOnce sync.Once
	dense     *fo.Channel
}

// SWWaveWidth returns the optimal half-width b for budget eps.
func SWWaveWidth(eps float64) (float64, error) {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return 0, fmt.Errorf("mdsw: invalid epsilon %v", eps)
	}
	// Written via expm1 to avoid catastrophic cancellation at small ε:
	// numerator ε·e^ε − (e^ε − 1) and denominator term e^ε − 1 − ε are
	// both O(ε²) while e^ε − 1 is O(ε).
	ee := math.Exp(eps)
	em1 := math.Expm1(eps)
	den := 2 * ee * (em1 - eps)
	if den <= 0 {
		// ε underflow below float precision: b → 1/2 in the ε→0 limit.
		return 0.5, nil
	}
	return (eps*ee - em1) / den, nil
}

// NewSW builds a Square Wave oracle over d buckets with budget eps.
func NewSW(d int, eps float64) (*SW, error) {
	if d < 1 {
		return nil, fmt.Errorf("mdsw: invalid bucket count %d", d)
	}
	b, err := SWWaveWidth(eps)
	if err != nil {
		return nil, err
	}
	s := &SW{d: d, eps: eps, b: b}
	s.pad = int(math.Ceil(b * float64(d)))
	if err := s.buildChannel(); err != nil {
		return nil, err
	}
	if err := s.linear.Validate(); err != nil {
		return nil, fmt.Errorf("mdsw: internal channel invalid: %w", err)
	}
	return s, nil
}

// buildChannel integrates the square wave exactly over each output bucket.
// Output bucket j (j = 0..d+2·pad−1) spans
// [(j−pad)/d, (j−pad+1)/d] ⊇ [−b, 1+b]. Each row is computed densely in
// a scratch buffer and compacted to base-plus-overrides, so the stored
// channel is O(d·window) instead of O(d·(d+2·pad)) while materialised
// rows stay bit-identical to the historical dense matrix.
func (s *SW) buildChannel() error {
	ee := math.Exp(s.eps)
	q := 1 / (2*s.b*ee + 1)
	p := ee * q
	nOut := s.d + 2*s.pad
	b := fo.NewUniformSparseBuilder(s.d, nOut)
	row := make([]float64, nOut)
	w := 1 / float64(s.d)
	for i := 0; i < s.d; i++ {
		v := (float64(i) + 0.5) * w // input bucket centre
		lo, hi := v-s.b, v+s.b      // high-density window
		for j := 0; j < nOut; j++ {
			a := float64(j-s.pad) * w
			bEdge := a + w
			// Clip the output bucket to the legal output domain
			// [−b, 1+b]: the edge buckets may extend past it.
			oa, ob := math.Max(a, -s.b), math.Min(bEdge, 1+s.b)
			if ob <= oa {
				row[j] = 0
				continue
			}
			highLen := math.Max(0, math.Min(ob, hi)-math.Max(oa, lo))
			lowLen := (ob - oa) - highLen
			row[j] = p*highLen + q*lowLen
		}
		// Absorb clipping slack (ends of the domain) into exact
		// normalisation.
		sum := 0.0
		for _, x := range row {
			sum += x
		}
		for j := range row {
			row[j] /= sum
		}
		b.CompactRow(row)
	}
	linear, err := b.Build()
	if err != nil {
		return fmt.Errorf("mdsw: %w", err)
	}
	s.linear = linear
	return nil
}

// NumInputs returns d.
func (s *SW) NumInputs() int { return s.d }

// NumOutputs returns the padded output bucket count.
func (s *SW) NumOutputs() int { return s.d + 2*s.pad }

// Channel materialises the dense bucket-level channel on first use
// (shared; treat as read-only). Estimation never needs it.
func (s *SW) Channel() *fo.Channel {
	s.denseOnce.Do(func() {
		s.dense = s.linear.Dense()
	})
	return s.dense
}

// Perturb randomises one input bucket into an output bucket. It keeps
// the historical single-uniform WeightedChoice draw over the dense row,
// so every sequential pipeline built on it (MDSW reports, Estimate1D)
// stays byte-identical across releases.
func (s *SW) Perturb(input int, r *rng.RNG) int {
	return rng.WeightedChoice(r, s.Channel().Row(input))
}

// Estimate recovers the input bucket distribution from output counts via
// EM with the 1-D binomial smoothing of Li et al. (the EMS estimator),
// running on the structured channel (whose re-associated float sums
// agree with the historical dense decode to ~1e-9, not bitwise).
func (s *SW) Estimate(counts []float64) ([]float64, error) {
	return em.Estimate(s.linear, counts, &em.Options{Smoothing: em.Smoother1D()})
}

// Scheme implements fo.Reporter: the report format is fixed by the
// bucket count and budget (which determine the wave width and padding).
func (s *SW) Scheme() string {
	return fmt.Sprintf("mdsw/sw d=%d eps=%g", s.d, s.eps)
}

// ReportShape implements fo.Reporter: one plane of padded bucket counts.
func (s *SW) ReportShape() []int { return []int{s.NumOutputs()} }

// Report implements fo.Reporter: encode one user's input bucket into an
// LDP report. It wraps Perturb, so a report loop consumes exactly the
// stream the historical collect-monolithic path did.
func (s *SW) Report(input int, r *rng.RNG) (fo.Report, error) {
	if input < 0 || input >= s.d {
		return fo.Report{}, fmt.Errorf("mdsw: input bucket %d outside [0, %d)", input, s.d)
	}
	return fo.SingleIndexReport(s.Perturb(input, r)), nil
}

// NewAggregate allocates an empty aggregate for this oracle's reports.
func (s *SW) NewAggregate() *fo.Aggregate { return fo.NewAggregateFor(s) }

// EstimateFromAggregate decodes an accumulated aggregate (one shard or a
// merge of many) into the estimated bucket distribution — the estimator
// stage of the 1-D report lifecycle.
func (s *SW) EstimateFromAggregate(agg *fo.Aggregate) ([]float64, error) {
	if err := agg.Compatible(s); err != nil {
		return nil, fmt.Errorf("mdsw: %w", err)
	}
	return s.Estimate(agg.Planes[0])
}
