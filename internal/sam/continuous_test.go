package sam

import (
	"fmt"
	"math"
)

// The continuous mechanisms' closed forms (Definitions 5 and 8, Equation
// (11)). The served mechanisms run the discretised grid channel of
// Section VI, so these are reference values for the tests: OptimalB is
// checked against MutualInfoBound, and the grid channels against the
// continuous densities.

// DAMProbabilities returns the continuous DAM densities of Definition 8:
// p = e^ε / (πb²e^ε + 4b + 1) inside the disk of radius b and
// q = 1 / (πb²e^ε + 4b + 1) outside, for a unit-square input domain.
func DAMProbabilities(eps, b float64) (p, q float64, err error) {
	if err := checkEpsB(eps, b); err != nil {
		return 0, 0, err
	}
	ee := math.Exp(eps)
	den := math.Pi*b*b*ee + 4*b + 1
	return ee / den, 1 / den, nil
}

// HUEMQ returns the continuous HUEM base density of Definition 5:
// q = ε² / (2π(e^ε−1−ε)b² + 4ε²b + ε²).
func HUEMQ(eps, b float64) (float64, error) {
	if err := checkEpsB(eps, b); err != nil {
		return 0, err
	}
	e2 := eps * eps
	den := 2*math.Pi*(math.Exp(eps)-1-eps)*b*b + 4*e2*b + e2
	return e2 / den, nil
}

// HUEMWave evaluates HUEM's wave function W(z) of Definition 5 at distance
// r from the true point: q·e^{(1−r/b)ε} inside the disk, q outside.
func HUEMWave(eps, b, r float64) (float64, error) {
	q, err := HUEMQ(eps, b)
	if err != nil {
		return 0, err
	}
	if r < 0 {
		return 0, fmt.Errorf("sam: negative distance %v", r)
	}
	if r <= b {
		return q * math.Exp((1-r/b)*eps), nil
	}
	return q, nil
}

func checkEpsB(eps, b float64) error {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return fmt.Errorf("sam: invalid epsilon %v", eps)
	}
	if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
		return fmt.Errorf("sam: invalid radius %v", b)
	}
	return nil
}

// MutualInfoBound evaluates g(b), the mutual-information upper bound of
// Equation (11) for a side-L input square, in bits. OptimalB maximises
// this function; the tests verify that numerically.
func MutualInfoBound(eps, b, L float64) (float64, error) {
	if err := checkEpsB(eps, b); err != nil {
		return 0, err
	}
	if L <= 0 {
		return 0, fmt.Errorf("sam: invalid side length %v", L)
	}
	ee := math.Exp(eps)
	area := math.Pi*b*b + 4*L*b + L*L
	areaE := math.Pi*b*b*ee + 4*L*b + L*L
	return math.Log2(area/areaE) + math.Pi*b*b*ee*eps*math.Log2(math.E)/areaE, nil
}
