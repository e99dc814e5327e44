package sam

import (
	"fmt"

	"dpspatial/internal/geom"
	"dpspatial/internal/rng"
)

// Test-only accessors and checks: the package's tests use them to inspect
// live code, and no product code calls them.

// OutputCells returns the output domain in channel order (shared slice;
// do not modify).
func (m *Mechanism) OutputCells() []geom.Cell { return m.out }

// PQ returns the discrete unit-cell probabilities (p̂, q̂).
func (m *Mechanism) PQ() (float64, float64) { return m.pHat, m.qHat }

// Perturb randomises one user's input cell index into an output cell
// index (GridAreaResponse, Algorithm 2: the two-stage weighted sampling
// over {pure-low, shrunken, complement, pure-high} collapses to one exact
// categorical draw over the channel row), through the cached alias
// samplers — O(1) per draw instead of the former O(|D̃|) linear scan.
// The draw consumes the same stream as Report always has; it differs
// from the pre-alias WeightedChoice stream (two uniforms per draw
// instead of one), which only ever fed Perturb-driven test loops.
func (m *Mechanism) Perturb(input int, r *rng.RNG) int {
	samplers, err := m.Samplers()
	if err != nil {
		// Unreachable: the channel is validated at construction, so every
		// row yields a well-formed alias table.
		panic(fmt.Sprintf("sam: samplers unavailable: %v", err))
	}
	return samplers[input].Draw(r)
}
