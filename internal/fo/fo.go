// Package fo implements the Frequency Oracle substrate of the paper
// (Section III): the FO = <T, E> protocol with a randomised reporting
// function T and an estimation function E. It provides the categorical
// oracles the related work builds on — generalized randomized response
// (GRR / k-RR) and optimized unary encoding (OUE) — plus the generic
// channel-matrix abstraction every spatial mechanism in this repository
// reduces to.
package fo

import (
	"fmt"
	"math"

	"dpspatial/internal/rng"
)

// Channel is a row-stochastic matrix M where M[i][j] = Pr[output j |
// input i]. It is the common representation that sampling, unbiased
// estimation, EM post-processing and the privacy checks all consume.
type Channel struct {
	In, Out int
	M       []float64 // row-major, In × Out
}

// NewChannel allocates a zero channel.
func NewChannel(in, out int) *Channel {
	return &Channel{In: in, Out: out, M: make([]float64, in*out)}
}

// At returns M[i][j].
func (c *Channel) At(i, j int) float64 { return c.M[i*c.Out+j] }

// Set assigns M[i][j].
func (c *Channel) Set(i, j int, v float64) { c.M[i*c.Out+j] = v }

// Row returns the i-th row slice (shared storage).
func (c *Channel) Row(i int) []float64 { return c.M[i*c.Out : (i+1)*c.Out] }

// Validate checks that every row is a probability distribution.
func (c *Channel) Validate() error {
	for i := 0; i < c.In; i++ {
		sum := 0.0
		for _, v := range c.Row(i) {
			if v < 0 || math.IsNaN(v) {
				return fmt.Errorf("fo: channel row %d has invalid entry %v", i, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("fo: channel row %d sums to %v", i, sum)
		}
	}
	return nil
}

// MaxRatio returns the worst-case likelihood ratio
// max_j max_{i1,i2} M[i1][j]/M[i2][j]: an ε-LDP channel must satisfy
// MaxRatio ≤ e^ε. Zero-probability outputs shared by all inputs are
// skipped; an output reachable from one input but not another yields +Inf.
func (c *Channel) MaxRatio() float64 { return maxRatioByRows(c) }

// Samplers builds one alias table per input row for O(1) perturbation.
func (c *Channel) Samplers() ([]*rng.Alias, error) { return samplersByRows(c) }

// Apply returns the exact output distribution M^T · p for an input
// distribution p.
func (c *Channel) Apply(p []float64) ([]float64, error) {
	if len(p) != c.In {
		return nil, fmt.Errorf("fo: input length %d != %d", len(p), c.In)
	}
	out := make([]float64, c.Out)
	for i := 0; i < c.In; i++ {
		pi := p[i]
		if pi == 0 {
			continue
		}
		row := c.Row(i)
		for j, v := range row {
			out[j] += pi * v
		}
	}
	return out, nil
}
