// Package em implements the PostProcess step of Algorithm 1: maximum-
// likelihood estimation of the input distribution from aggregated noisy
// reports via Expectation–Maximisation, plus the EM-with-Smoothing (EMS)
// variant of Li et al. (SIGMOD 2020) that regularises the estimate between
// iterations — in 1-D for the Square Wave baseline and in 2-D for the
// spatial mechanisms.
//
// The engine consumes channels through fo.LinearChannel, so structured
// channels (the SAM family's translated footprint, uniform-plus-sparse
// SW rows, two-valued GRR, FFT convolutions) run each EM sweep in
// O(In + nnz) or O(n log n) instead of the dense O(In·Out). Every channel runs the same iteration over its
// Forward and Backward sweeps; Options.Init warm-starts the iteration
// from a previous estimate for incremental re-estimation over growing
// aggregates.
package em

import (
	"fmt"
	"math"

	"dpspatial/internal/fo"
)

// Options controls the EM iteration.
type Options struct {
	// MaxIter caps the number of EM iterations (default 1000).
	MaxIter int
	// Tol stops iteration when the L1 change between successive estimates
	// falls below it (default 1e-9).
	Tol float64
	// Smoothing, if non-nil, is applied to the estimate after every EM
	// step (the "S" in EMS): it writes the smoothing of p into dst, a
	// buffer as long as p that the decode owns and that holds stale
	// values. It must preserve total mass. Decodes that share Options
	// call it at once, so it keeps no buffer of its own.
	Smoothing func(dst, p []float64)
	// Init, if non-nil, warm-starts the iteration from this input
	// distribution (length NumInputs) instead of uniform. The slice is
	// copied; entries must be non-negative and are renormalised. Zero
	// entries are floored at a 1e-12 share of uniform mass so a warm
	// start can never permanently erase support the merged data calls
	// for. A warm start saves iterations only when EM reaches Tol
	// before MaxIter, and its result depends on the estimate it starts
	// from, so a warm-chained estimate can differ from a cold decode of
	// the same counts.
	Init []float64
}

// Stats reports how an EM run terminated.
type Stats struct {
	// Iterations is the number of EM updates executed.
	Iterations int
	// Delta is the final L1 change between successive estimates.
	Delta float64
	// Converged reports whether iteration stopped on Tol (as opposed to
	// exhausting MaxIter).
	Converged bool
}

func (o *Options) withDefaults() Options {
	out := Options{MaxIter: 1000, Tol: 1e-9}
	if o != nil {
		if o.MaxIter > 0 {
			out.MaxIter = o.MaxIter
		}
		if o.Tol > 0 {
			out.Tol = o.Tol
		}
		out.Smoothing = o.Smoothing
		out.Init = o.Init
	}
	return out
}

// Estimate runs EM on the observed output counts under the given channel
// and returns the maximum-likelihood input distribution (normalised).
//
// Update rule: p'_i ∝ p_i · Σ_j c_j · M_ij / (Σ_k p_k · M_kj).
func Estimate(ch fo.LinearChannel, counts []float64, opts *Options) ([]float64, error) {
	p, _, err := EstimateWithStats(ch, counts, opts)
	return p, err
}

// EstimateWithStats is Estimate plus termination statistics — the
// iteration count is what incremental (warm-started) estimation monitors.
func EstimateWithStats(ch fo.LinearChannel, counts []float64, opts *Options) ([]float64, Stats, error) {
	in, out := ch.NumInputs(), ch.NumOutputs()
	if len(counts) != out {
		return nil, Stats{}, fmt.Errorf("em: %d counts for channel with %d outputs", len(counts), out)
	}
	total := 0.0
	for j, c := range counts {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, Stats{}, fmt.Errorf("em: invalid count %v at %d", c, j)
		}
		total += c
	}
	if total <= 0 {
		return nil, Stats{}, fmt.Errorf("em: no reports")
	}
	if math.IsInf(total, 0) {
		return nil, Stats{}, fmt.Errorf("em: count total overflows float64")
	}
	o := opts.withDefaults()

	p, err := initialEstimate(in, o.Init)
	if err != nil {
		return nil, Stats{}, err
	}

	// One iteration runs the channel's Forward and Backward sweeps —
	// O(In + Out + nnz) for structured channels.
	outMix := make([]float64, out)
	w := make([]float64, out)
	next := make([]float64, in)
	var smoothed []float64
	if o.Smoothing != nil {
		smoothed = make([]float64, in)
	}
	var stats Stats
	for iter := 0; iter < o.MaxIter; iter++ {
		ch.Forward(p, outMix)
		for j := range w {
			if counts[j] != 0 && outMix[j] > 0 {
				w[j] = counts[j] / outMix[j]
			} else {
				w[j] = 0
			}
		}
		ch.Backward(w, next)
		for i := range next {
			next[i] = p[i] * next[i] / total
		}
		normalize(next)
		if o.Smoothing != nil {
			o.Smoothing(smoothed, next)
			next, smoothed = smoothed, next
			normalize(next)
		}
		delta := 0.0
		for i := range p {
			delta += math.Abs(next[i] - p[i])
		}
		copy(p, next)
		stats.Iterations = iter + 1
		stats.Delta = delta
		if delta < o.Tol {
			stats.Converged = true
			break
		}
	}
	return p, stats, nil
}

// initialEstimate returns the starting distribution: uniform, or a
// floored and renormalised copy of init.
func initialEstimate(in int, init []float64) ([]float64, error) {
	p := make([]float64, in)
	if init == nil {
		uniform := 1 / float64(in)
		for i := range p {
			p[i] = uniform
		}
		return p, nil
	}
	if len(init) != in {
		return nil, fmt.Errorf("em: warm-start estimate has %d entries for channel with %d inputs", len(init), in)
	}
	floor := 1e-12 / float64(in)
	for i, v := range init {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("em: invalid warm-start probability %v at %d", v, i)
		}
		if v < floor {
			v = floor
		}
		p[i] = v
	}
	normalize(p)
	return p, nil
}

func normalize(p []float64) {
	total := 0.0
	for _, v := range p {
		total += v
	}
	if total <= 0 {
		u := 1 / float64(len(p))
		for i := range p {
			p[i] = u
		}
		return
	}
	for i := range p {
		p[i] /= total
	}
}

// Smoother1D returns a binomial [1,2,1]/4 smoothing kernel over a 1-D
// domain, the EMS smoothing of Li et al. Mass that would leave the domain
// at the borders stays in the border cell, so total mass is conserved
// exactly. A slice shorter than 3 is copied unchanged.
func Smoother1D() func(dst, p []float64) {
	return func(dst, p []float64) {
		n := len(p)
		if n < 3 {
			copy(dst, p)
			return
		}
		clear(dst)
		for i, v := range p {
			left, right := i-1, i+1
			if left < 0 {
				left = 0
			}
			if right >= n {
				right = n - 1
			}
			dst[i] += v / 2
			dst[left] += v / 4
			dst[right] += v / 4
		}
	}
}

// Smoother2D returns the 2-D analogue: each cell spreads its mass with a
// 3×3 binomial kernel (centre 4, edges 2, corners 1, total 16) over a d×d
// row-major grid. Out-of-grid shares stay at the source cell, conserving
// total mass exactly. A slice that is not d×d is copied unchanged.
func Smoother2D(d int) func(dst, p []float64) {
	return func(dst, p []float64) {
		if d < 2 || len(p) != d*d {
			copy(dst, p)
			return
		}
		clear(dst)
		for y := 0; y < d; y++ {
			for x := 0; x < d; x++ {
				v := p[y*d+x]
				if v == 0 {
					continue
				}
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						w := 4.0
						if dx != 0 {
							w /= 2
						}
						if dy != 0 {
							w /= 2
						}
						nx, ny := x+dx, y+dy
						if nx < 0 || nx >= d || ny < 0 || ny >= d {
							nx, ny = x, y // reflect leakage back to source
						}
						dst[ny*d+nx] += v * w / 16
					}
				}
			}
		}
	}
}
