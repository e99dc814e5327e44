package semgeoi

import (
	"math"

	"dpspatial/internal/geom"
)

// Test-only accessors and checks: the package's tests use them to inspect
// live code, and no product code calls them.

// SubsetSize returns k.
func (m *Mechanism) SubsetSize() int { return m.k }

// Subset expands a reported centre index into the cells of the reported
// subset, clamped to the grid.
func (m *Mechanism) Subset(center int) []geom.Cell {
	c := m.dom.CellAt(center)
	offs := ballOffsets(m.k)
	out := make([]geom.Cell, 0, len(offs))
	for _, off := range offs {
		cc := c.Add(off)
		cc.X = clampInt(cc.X, 0, m.dom.D-1)
		cc.Y = clampInt(cc.Y, 0, m.dom.D-1)
		out = append(out, cc)
	}
	return out
}

// GeoIRatioHolds verifies the Geo-I guarantee on the channel: for every
// output and every input pair, Pr[o|v1]/Pr[o|v2] ≤ e^{ε'·dis(v1,v2)}.
func (m *Mechanism) GeoIRatioHolds(tol float64) bool {
	n := m.NumInputs()
	ch := m.Channel()
	for i1 := 0; i1 < n; i1++ {
		for i2 := i1 + 1; i2 < n; i2++ {
			bound := math.Exp(m.epsGeo * m.dom.CellAt(i1).CenterDist(m.dom.CellAt(i2)))
			for j := 0; j < m.NumOutputs(); j++ {
				p1, p2 := ch.At(i1, j), ch.At(i2, j)
				if p2 == 0 || p1 == 0 {
					return false
				}
				r := p1 / p2
				if r < 1 {
					r = 1 / r
				}
				if r > bound*(1+tol) {
					return false
				}
			}
		}
	}
	return true
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ballOffsets returns the k cell offsets closest to the origin (ties
// broken deterministically), forming a discrete ball of k cells.
func ballOffsets(k int) []geom.Cell {
	reach := 1
	for (2*reach+1)*(2*reach+1) < k {
		reach++
	}
	type distCell struct {
		d float64
		c geom.Cell
	}
	cells := make([]distCell, 0, (2*reach+1)*(2*reach+1))
	for y := -reach; y <= reach; y++ {
		for x := -reach; x <= reach; x++ {
			c := geom.Cell{X: x, Y: y}
			cells = append(cells, distCell{d: c.CenterDist(geom.Cell{}), c: c})
		}
	}
	// Deterministic sort: by distance, then y, then x.
	for i := 1; i < len(cells); i++ {
		for j := i; j > 0; j-- {
			a, b := cells[j-1], cells[j]
			if b.d < a.d || (b.d == a.d && (b.c.Y < a.c.Y || (b.c.Y == a.c.Y && b.c.X < a.c.X))) {
				cells[j-1], cells[j] = cells[j], cells[j-1]
			} else {
				break
			}
		}
	}
	offs := make([]geom.Cell, k)
	for i := 0; i < k; i++ {
		offs[i] = cells[i].c
	}
	return offs
}
