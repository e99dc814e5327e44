package grid

import (
	"fmt"
	"math"
	"strings"

	"dpspatial/internal/geom"
)

// Hist2D is a dense histogram (or probability distribution) over the cells
// of a Domain, stored row-major.
type Hist2D struct {
	Dom  Domain
	Mass []float64
}

// NewHist returns an all-zero histogram over the domain.
func NewHist(dom Domain) *Hist2D {
	return &Hist2D{Dom: dom, Mass: make([]float64, dom.NumCells())}
}

// HistFromPoints bucketises points into the domain's cells (Line 5 of
// Algorithm 1) and returns the count histogram.
func HistFromPoints(dom Domain, points []geom.Point) *Hist2D {
	h := NewHist(dom)
	for _, p := range points {
		h.Mass[dom.Index(dom.CellOf(p))]++
	}
	return h
}

// HistFromMass wraps an existing mass vector. It returns an error if the
// length does not match the domain.
func HistFromMass(dom Domain, mass []float64) (*Hist2D, error) {
	if len(mass) != dom.NumCells() {
		return nil, fmt.Errorf("grid: mass length %d != %d cells", len(mass), dom.NumCells())
	}
	return &Hist2D{Dom: dom, Mass: mass}, nil
}

// Clone returns a deep copy.
func (h *Hist2D) Clone() *Hist2D {
	mass := make([]float64, len(h.Mass))
	copy(mass, h.Mass)
	return &Hist2D{Dom: h.Dom, Mass: mass}
}

// Total returns the histogram's total mass.
func (h *Hist2D) Total() float64 {
	total := 0.0
	for _, m := range h.Mass {
		total += m
	}
	return total
}

// Normalize scales the histogram in place to total mass 1 and returns it.
// A zero-mass histogram becomes uniform.
func (h *Hist2D) Normalize() *Hist2D {
	total := h.Total()
	if total <= 0 {
		u := 1 / float64(len(h.Mass))
		for i := range h.Mass {
			h.Mass[i] = u
		}
		return h
	}
	for i := range h.Mass {
		h.Mass[i] /= total
	}
	return h
}

// At returns the mass at a cell.
func (h *Hist2D) At(c geom.Cell) float64 { return h.Mass[h.Dom.Index(c)] }

// Set assigns the mass at a cell.
func (h *Hist2D) Set(c geom.Cell, v float64) { h.Mass[h.Dom.Index(c)] = v }

// MarginalX returns the histogram's marginal along the x axis.
func (h *Hist2D) MarginalX() []float64 {
	m := make([]float64, h.Dom.D)
	for i, v := range h.Mass {
		m[i%h.Dom.D] += v
	}
	return m
}

// TotalVariation returns the total-variation distance between two
// normalised histograms on the same domain shape.
func TotalVariation(a, b *Hist2D) (float64, error) {
	if len(a.Mass) != len(b.Mass) {
		return 0, fmt.Errorf("grid: histogram sizes differ (%d vs %d)", len(a.Mass), len(b.Mass))
	}
	sum := 0.0
	for i := range a.Mass {
		sum += math.Abs(a.Mass[i] - b.Mass[i])
	}
	return sum / 2, nil
}

// Render draws the histogram as a rough ASCII density map (darkest = most
// mass), row y = d-1 on top, for terminal inspection in the examples.
func (h *Hist2D) Render() string {
	const ramp = " .:-=+*#%@"
	maxMass := 0.0
	for _, m := range h.Mass {
		maxMass = math.Max(maxMass, m)
	}
	var sb strings.Builder
	for y := h.Dom.D - 1; y >= 0; y-- {
		for x := 0; x < h.Dom.D; x++ {
			v := h.Mass[y*h.Dom.D+x]
			idx := 0
			if maxMass > 0 {
				idx = int(v / maxMass * float64(len(ramp)-1))
			}
			sb.WriteByte(ramp[idx])
			sb.WriteByte(ramp[idx]) // double width for aspect ratio
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
