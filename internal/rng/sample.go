package rng

import (
	"fmt"
	"math"
)

// Alias is a Walker alias table: O(n) construction, O(1) categorical
// sampling. Mechanisms build one table per input cell and then perturb
// hundreds of thousands of reports through it.
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds an alias table for the given non-negative weights.
// Weights need not be normalised. It returns an error if all weights are
// zero, any weight is negative or not finite, or the slice is empty.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("rng: alias table needs at least one weight")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("rng: invalid weight %v at index %d", w, i)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("rng: all weights are zero")
	}
	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int, n),
	}
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		// Numerical residue: these columns are effectively full.
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a, nil
}

// Draw samples one index from the table's categorical distribution.
func (a *Alias) Draw(r *RNG) int {
	i := r.Intn(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// Len reports the number of categories in the table.
func (a *Alias) Len() int { return len(a.prob) }

// WeightedChoice samples an index proportional to weights without building
// a table. Use for one-off draws; use Alias for repeated draws. It panics
// on an empty or all-zero weight slice.
func WeightedChoice(r *RNG, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("rng: weighted choice over zero-mass weights")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
