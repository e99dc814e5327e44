package fo

import (
	"fmt"
	"math"

	"dpspatial/internal/rng"
)

// OUE is optimized unary encoding (Wang et al. 2017): each user reports a
// perturbed bit vector. The true bit stays 1 with probability 1/2; every
// other bit flips to 1 with probability 1/(e^ε+1). OUE's estimation
// variance is independent of the domain size, which makes it the oracle of
// choice for the large transition domains in the trajectory baselines.
//
// PerturbBits returns one user's perturbed bit vector; EstimateBits
// recovers frequencies from the per-category support counts of those
// vectors.
type OUE struct {
	k   int
	eps float64
	p   float64 // Pr[bit stays 1 | true]
	q   float64 // Pr[bit becomes 1 | false]
}

// NewOUE returns an OUE oracle over k categories with budget eps > 0.
func NewOUE(k int, eps float64) (*OUE, error) {
	if k < 2 {
		return nil, fmt.Errorf("fo: OUE needs k >= 2, got %d", k)
	}
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("fo: invalid epsilon %v", eps)
	}
	return &OUE{k: k, eps: eps, p: 0.5, q: 1 / (math.Exp(eps) + 1)}, nil
}

// NumCategories returns the domain size k.
func (o *OUE) NumCategories() int { return o.k }

// NumInputs implements Reporter.
func (o *OUE) NumInputs() int { return o.k }

// PerturbBits randomises one user's value into a reported bit vector.
func (o *OUE) PerturbBits(input int, r *rng.RNG) []bool {
	bits := make([]bool, o.k)
	for j := 0; j < o.k; j++ {
		if j == input {
			bits[j] = r.Float64() < o.p
		} else {
			bits[j] = r.Float64() < o.q
		}
	}
	return bits
}

// AccumulateBits adds a reported bit vector into per-category support
// counts.
func (o *OUE) AccumulateBits(bits []bool, support []float64) error {
	if len(bits) != o.k || len(support) != o.k {
		return fmt.Errorf("fo: OUE bit/support length mismatch")
	}
	for j, b := range bits {
		if b {
			support[j]++
		}
	}
	return nil
}

// Scheme implements Reporter.
func (o *OUE) Scheme() string { return fmt.Sprintf("fo/oue k=%d eps=%g", o.k, o.eps) }

// ReportShape implements Reporter: one support plane of k counts.
func (o *OUE) ReportShape() []int { return []int{o.k} }

// Report implements Reporter: the set bits of one user's perturbed unary
// encoding, as support indices.
func (o *OUE) Report(input int, r *rng.RNG) (Report, error) {
	if input < 0 || input >= o.k {
		return Report{}, fmt.Errorf("fo: OUE input %d outside [0, %d)", input, o.k)
	}
	bits := o.PerturbBits(input, r)
	set := make([]int, 0, 4)
	for j, b := range bits {
		if b {
			set = append(set, j)
		}
	}
	return Report{Planes: [][]int{set}}, nil
}

// EstimateBits recovers normalised frequencies from support counts over n
// users: f̂_j = (s_j/n − q)/(p − q), projected onto the simplex.
func (o *OUE) EstimateBits(support []float64, n float64) ([]float64, error) {
	if len(support) != o.k {
		return nil, fmt.Errorf("fo: OUE expects %d supports, got %d", o.k, len(support))
	}
	if n <= 0 {
		return nil, fmt.Errorf("fo: no reports")
	}
	est := make([]float64, o.k)
	for j, s := range support {
		est[j] = (s/n - o.q) / (o.p - o.q)
	}
	ProjectSimplex(est)
	return est, nil
}
