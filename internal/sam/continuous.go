// Package sam implements the paper's core contribution: the Spatial Area
// Mechanism framework (Definition 4) and its instances — the Disk Area
// Mechanism (DAM, Definition 8, proved optimal in Theorem V.2), the Hybrid
// Uniform-Exponential Mechanism (HUEM, Definition 5), and the non-shrunken
// variant DAM-NS — together with the optimal-radius selection of Section
// V-C and the grid discretisation with border shrinkage of Section VI
// (Algorithms 1 and 2).
package sam

import (
	"fmt"
	"math"
)

// OptimalB returns the radius b̌ of Section V-C that maximises the mutual-
// information upper bound for an input square of side L:
//
//	b̌ = (2m₂ + √(4m₂² + πe^ε·m₁·m₂)) / (πe^ε·m₁) · L
//
// with m₁ = e^ε−1−ε and m₂ = 1−e^ε+εe^ε. As ε→0 this tends to
// (2+√(4+π))/π · L and as ε→∞ it tends to 0.
func OptimalB(eps, L float64) (float64, error) {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return 0, fmt.Errorf("sam: invalid epsilon %v", eps)
	}
	if L <= 0 || math.IsNaN(L) || math.IsInf(L, 0) {
		return 0, fmt.Errorf("sam: invalid side length %v", L)
	}
	ee := math.Exp(eps)
	m1 := ee - 1 - eps
	m2 := 1 - ee + eps*ee
	if m1 <= 0 || m2 <= 0 {
		// Only possible through floating-point underflow at tiny ε; fall
		// back to the ε→0 limit.
		return (2 + math.Sqrt(4+math.Pi)) / math.Pi * L, nil
	}
	num := 2*m2 + math.Sqrt(4*m2*m2+math.Pi*ee*m1*m2)
	return num / (math.Pi * ee * m1) * L, nil
}

// BHat returns the discrete high-probability radius b̂ = ⌊b̌⌋ in cell units
// for a d×d grid (the paper measures b̌ in cell units by setting L = d).
func BHat(eps float64, d int) (int, error) {
	if d < 1 {
		return 0, fmt.Errorf("sam: invalid grid size %d", d)
	}
	b, err := OptimalB(eps, float64(d))
	if err != nil {
		return 0, err
	}
	return int(math.Floor(b)), nil
}
