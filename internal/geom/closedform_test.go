package geom

import "math"

// The closed forms of Section VI (Theorems VI.3 and VI.4, Equation (14))
// and the helpers that state them. DiskFootprint builds the footprint by
// direct geometry, so these are reference values its tests check it
// against.

// Mixed reports whether the cell is a border (mixed-probability) cell.
func (d DiskCell) Mixed() bool { return d.HighArea < 1 }

// HighArea returns the footprint's total high-probability area
// Σ HighArea — the quantity S_H of Section VI before adding the
// low-probability complement.
func HighArea(fp []DiskCell) float64 {
	total := 0.0
	for _, c := range fp {
		total += c.HighArea
	}
	return total
}

// QuarterMixedCount implements Theorem VI.3's counting formula: the number
// of mixed cells strictly between directions 0 and π/4 for integer radius
// b ≥ 1.
func QuarterMixedCount(b int) int {
	bb := float64(b)
	h := math.Ceil(bb/math.Sqrt2 - 0.5)
	r1 := math.Floor(bb/math.Sqrt2-0.5)*math.Sqrt2 + 1/math.Sqrt2
	r := math.Sqrt(r1*r1 + 1 + math.Sqrt2*r1)
	return int(h) - int(math.Floor(r/bb))
}

// QuarterMixedIndices implements Theorem VI.3's index formula: the cell
// indices of the strict-quarter mixed cells, one per horizontal line,
// (⌈√(b²−(i−1/2)²)−1/2⌉, i) for i = 1..QuarterMixedCount(b).
func QuarterMixedIndices(b int) []Cell {
	n := QuarterMixedCount(b)
	cells := make([]Cell, 0, n)
	bb := float64(b)
	for i := 1; i <= n; i++ {
		yi := float64(i) - 0.5
		x := int(math.Ceil(math.Sqrt(bb*bb-yi*yi) - 0.5))
		cells = append(cells, Cell{x, i})
	}
	return cells
}

// QuarterPureHighCount implements Theorem VI.4 with an erratum correction:
// the number of pure high-probability cells strictly between directions 0
// and π/4 for integer radius b ≥ 1 (0 < y < x, centre distance ≤ b).
//
// Erratum: the formula as printed in the paper evaluates to the count
// including the diagonal pure-high cells — for b = 7 it yields 17 while the
// paper's own Figure 6 example states |E^(p)| = 13 (and the S_H formula of
// Section VI-A counts the diagonal separately, so using the printed value
// there would double-count). We therefore subtract the ⌊b/√2⌋ diagonal
// pure-high cells; the result matches both the Figure 6 example and direct
// enumeration for all radii.
func QuarterPureHighCount(b int) int {
	bb := float64(b)
	h := math.Ceil(bb/math.Sqrt2 - 0.5)
	m := QuarterMixedCount(b)
	sum := 0.0
	for i := 1; i <= m; i++ {
		yi := float64(i) - 0.5
		sum += math.Ceil(math.Sqrt(bb*bb-yi*yi) - 0.5)
	}
	printed := int(0.5*h*(h-2*float64(m)-1) + sum)
	diagonal := int(math.Floor(bb / math.Sqrt2))
	return printed - diagonal
}

// DiagonalShrunkenArea implements Equation (14): the shrunken area of the
// border cell lying exactly on the π/4 diagonal for integer radius b.
func DiagonalShrunkenArea(b int) float64 {
	bp := float64(b)/math.Sqrt2 - 0.5
	k := math.Floor(bp)
	if bp-k < 0.5 {
		return 4 * (bp - k) * (bp - k)
	}
	return 1
}

// Area returns the rectangle's area (zero for inverted rectangles).
func (r Rect) Area() float64 {
	w := r.MaxX - r.MinX
	h := r.MaxY - r.MinY
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// maxDistToOrigin returns the largest distance from the origin to any point
// of the rectangle (always a corner).
func (r Rect) maxDistToOrigin() float64 {
	dx := math.Max(math.Abs(r.MinX), math.Abs(r.MaxX))
	dy := math.Max(math.Abs(r.MinY), math.Abs(r.MaxY))
	return math.Hypot(dx, dy)
}
