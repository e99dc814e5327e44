// Package geom implements the planar geometry substrate of the paper:
// points, grid cells, disk rasterisation over unit cells, and the border
// shrinkage construction of Section VI (Theorems VI.1–VI.4) that turns the
// continuous Disk Area Mechanism into a grid mechanism without breaking
// ε-LDP.
package geom

import "math"

// Point is a location in the continuous plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean (2-norm) distance between two points.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Cell is a grid cell index. The cell occupies the unit square
// [X-1/2, X+1/2] x [Y-1/2, Y+1/2] with its centre at integer coordinates,
// matching the paper's convention ("the coordinate unit is reset to the
// side length of a grid cell, and we use the central point of a cell to
// represent its position").
type Cell struct {
	X, Y int
}

// Add translates the cell by an offset.
func (c Cell) Add(o Cell) Cell { return Cell{c.X + o.X, c.Y + o.Y} }

// Sub returns the offset from o to c.
func (c Cell) Sub(o Cell) Cell { return Cell{c.X - o.X, c.Y - o.Y} }

// CenterDist returns the Euclidean distance between the centres of two
// cells.
func (c Cell) CenterDist(o Cell) float64 {
	dx := float64(c.X - o.X)
	dy := float64(c.Y - o.Y)
	return math.Hypot(dx, dy)
}

// Rect is an axis-aligned rectangle.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// CellRect returns the unit square occupied by the cell.
func CellRect(c Cell) Rect {
	return Rect{
		MinX: float64(c.X) - 0.5,
		MinY: float64(c.Y) - 0.5,
		MaxX: float64(c.X) + 0.5,
		MaxY: float64(c.Y) + 0.5,
	}
}

// Contains reports whether the point lies in the closed rectangle.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// minDistToOrigin returns the smallest distance from the origin to any
// point of the rectangle; 0 if the rectangle contains the origin.
func (r Rect) minDistToOrigin() float64 {
	dx := math.Max(0, math.Max(r.MinX, -r.MaxX))
	dy := math.Max(0, math.Max(r.MinY, -r.MaxY))
	return math.Hypot(dx, dy)
}
