package fo

import (
	"fmt"
	"math"

	"dpspatial/internal/rng"
)

// GRR is generalized randomized response (k-RR): the categorical frequency
// oracle the paper's CFO baselines build on. The true value is reported
// with probability p = e^ε/(e^ε+k-1); any other value with probability
// q = 1/(e^ε+k-1).
type GRR struct {
	k    int
	eps  float64
	p, q float64
}

// NewGRR returns a k-ary randomized-response oracle with budget eps > 0.
func NewGRR(k int, eps float64) (*GRR, error) {
	if k < 2 {
		return nil, fmt.Errorf("fo: GRR needs k >= 2, got %d", k)
	}
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("fo: invalid epsilon %v", eps)
	}
	ee := math.Exp(eps)
	return &GRR{
		k:   k,
		eps: eps,
		p:   ee / (ee + float64(k) - 1),
		q:   1 / (ee + float64(k) - 1),
	}, nil
}

// NumInputs returns the input domain size k.
func (g *GRR) NumInputs() int { return g.k }

// Epsilon returns the privacy budget.
func (g *GRR) Epsilon() float64 { return g.eps }

// Perturb randomises one input index into an output index (the paper's
// FO.T).
func (g *GRR) Perturb(input int, r *rng.RNG) int {
	if r.Float64() < g.p {
		return input
	}
	// Uniform over the k-1 other values.
	v := r.Intn(g.k - 1)
	if v >= input {
		v++
	}
	return v
}

// Estimate recovers input frequencies (the paper's FO.E) with the
// standard unbiased inversion f̂_i = (c_i/n − q) / (p − q), clipped to
// the simplex.
func (g *GRR) Estimate(counts []float64) ([]float64, error) {
	if len(counts) != g.k {
		return nil, fmt.Errorf("fo: GRR expects %d counts, got %d", g.k, len(counts))
	}
	n := 0.0
	for _, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("fo: negative count %v", c)
		}
		n += c
	}
	if n == 0 {
		return nil, fmt.Errorf("fo: no reports")
	}
	est := make([]float64, g.k)
	for i, c := range counts {
		est[i] = (c/n - g.q) / (g.p - g.q)
	}
	ProjectSimplex(est)
	return est, nil
}

// Scheme implements Reporter.
func (g *GRR) Scheme() string { return fmt.Sprintf("fo/grr k=%d eps=%g", g.k, g.eps) }

// ReportShape implements Reporter: one plane of k counts.
func (g *GRR) ReportShape() []int { return []int{g.k} }

// Report implements Reporter: one user's randomised-response output.
func (g *GRR) Report(input int, r *rng.RNG) (Report, error) {
	if input < 0 || input >= g.k {
		return Report{}, fmt.Errorf("fo: GRR input %d outside [0, %d)", input, g.k)
	}
	return SingleIndexReport(g.Perturb(input, r)), nil
}

// Linear returns GRR's channel in its two-valued closed form (p on the
// diagonal, q elsewhere), which EM sweeps in O(k) instead of the dense
// O(k²).
func (g *GRR) Linear() *TwoValue {
	t, err := NewTwoValue(g.k, g.p, g.q)
	if err != nil {
		// Unreachable: p + (k−1)·q = 1 by construction.
		panic(fmt.Sprintf("fo: GRR channel invalid: %v", err))
	}
	return t
}

// Channel returns GRR's explicit channel matrix.
func (g *GRR) Channel() *Channel {
	ch := NewChannel(g.k, g.k)
	for i := 0; i < g.k; i++ {
		for j := 0; j < g.k; j++ {
			if i == j {
				ch.Set(i, j, g.p)
			} else {
				ch.Set(i, j, g.q)
			}
		}
	}
	return ch
}

// ProjectSimplex clips negatives to zero and renormalises in place — the
// standard post-processing step that keeps unbiased LDP estimates valid
// probability vectors.
func ProjectSimplex(v []float64) {
	total := 0.0
	for i, x := range v {
		if x < 0 {
			v[i] = 0
		} else {
			total += x
		}
	}
	if total <= 0 {
		u := 1 / float64(len(v))
		for i := range v {
			v[i] = u
		}
		return
	}
	for i := range v {
		v[i] /= total
	}
}
