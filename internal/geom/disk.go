package geom

import "math"

// DiskCell is one cell of a rasterised disk footprint. HighArea is the
// fraction of the cell's unit area assigned to the high-probability region:
// 1 for pure high-probability cells (centre inside the circle), a value in
// (0, 1] for mixed border cells (the shrunken rectangle of Theorem VI.1).
type DiskCell struct {
	Off      Cell    // offset from the disk centre cell
	HighArea float64 // fraction of the cell reported at the high probability
}

// ShrunkenArea implements Theorem VI.1: for a circle of radius b centred at
// cell (0,0) and a border cell whose centre (x, y) lies outside the circle
// while the cell still intersects it, the shrunken high-probability
// rectangle has area 4(δ|x|+1/2)(δ|y|+1/2) with δ = b/√(x²+y²) − 1. Each
// side is clamped to the unit cell, which realises the diagonal special
// case of Equation (14).
func ShrunkenArea(b float64, x, y int) float64 {
	ax, ay := math.Abs(float64(x)), math.Abs(float64(y))
	r := math.Hypot(ax, ay)
	if r == 0 {
		return 1
	}
	delta := b/r - 1
	w := clamp01(2 * (delta*ax + 0.5))
	h := clamp01(2 * (delta*ay + 0.5))
	return w * h
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// DiskFootprint rasterises a disk of radius b (in cell units, b ≥ 0)
// centred at cell (0, 0):
//
//   - cells whose centre lies inside or on the circle are pure
//     high-probability cells (HighArea = 1);
//   - cells that intersect the circle with their centre outside are mixed
//     cells carrying the shrunken area of Theorem VI.1;
//   - all other cells are excluded (they belong to the low-probability
//     region).
//
// The centre cell (0,0) is always part of the footprint, so the footprint
// is non-empty even for b = 0 (where DAM degenerates to randomized
// response over the grid). Cells are emitted in row-major order for
// deterministic downstream construction.
func DiskFootprint(b float64) []DiskCell {
	return footprint(b, true)
}

// DiskFootprintNS is the non-shrunken variant used by DAM-NS: border cells
// are classified purely by their centre, so the footprint contains only
// whole cells (HighArea = 1 everywhere).
func DiskFootprintNS(b float64) []DiskCell {
	return footprint(b, false)
}

func footprint(b float64, shrink bool) []DiskCell {
	if b < 0 {
		b = 0
	}
	reach := int(math.Ceil(b)) + 1
	var cells []DiskCell
	for y := -reach; y <= reach; y++ {
		for x := -reach; x <= reach; x++ {
			c := Cell{x, y}
			centerDist := math.Hypot(float64(x), float64(y))
			switch {
			case centerDist <= b || (x == 0 && y == 0):
				cells = append(cells, DiskCell{Off: c, HighArea: 1})
			case shrink && CellRect(c).minDistToOrigin() < b:
				// Border cells stay in the footprint even when the shrunken
				// rectangle degenerates to zero area: Theorem VI.2's
				// low-area bookkeeping counts every circle-intersecting
				// cell, and a zero-area cell simply reports at the low
				// probability.
				cells = append(cells, DiskCell{Off: c, HighArea: ShrunkenArea(b, x, y)})
			}
		}
	}
	return cells
}

// --- Closed forms of Theorems VI.2–VI.4 (used as cross-checks and for the
// --- O(1) bookkeeping the paper performs; the mechanisms themselves use
// --- the direct rasterisation above).

// PureLowAreaClosedForm implements Theorem VI.2: for a square input domain
// of integer side d and integer radius b, the pure low-probability area is
// d² + 4bd − 4b − 1.
func PureLowAreaClosedForm(d, b int) int {
	return d*d + 4*b*d - 4*b - 1
}
