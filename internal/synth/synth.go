// Package synth generates the evaluation workloads of Section VII-A.
//
// The three synthetic families follow the paper exactly:
//
//   - Normal(µx, µy, σx, σy, ρ): correlated 2-D Gaussian points, clipped
//     to a square range;
//   - SZipf: per-dimension skew-Zipf points with CDF log₂(x+1) on [0,1);
//   - MNormal: a three-component Gaussian mixture.
//
// The two real datasets (Chicago Crime 2022, NYC Green Taxi 2016) are
// served from city open-data portals and are unavailable offline, so this
// package provides *city-like* generators that reproduce what the
// mechanisms are sensitive to — points concentrated along a road network
// with skewed hot spots, split into three rectangular parts A/B/C with the
// paper's relative densities (Table III). DESIGN.md records the
// substitution.
package synth

import (
	"fmt"
	"math"

	"dpspatial/internal/geom"
	"dpspatial/internal/rng"
)

// Dataset is a named point cloud, optionally pre-split into parts
// (Table III's A/B/C squares).
type Dataset struct {
	Name   string
	Points []geom.Point
	Parts  []Part
}

// Part is a named square extraction region of a dataset.
type Part struct {
	Name string
	Rect geom.Rect
}

// Extract returns the points of the dataset falling inside the part.
func (d *Dataset) Extract(p Part) []geom.Point {
	var out []geom.Point
	for _, pt := range d.Points {
		if p.Rect.Contains(pt) {
			out = append(out, pt)
		}
	}
	return out
}

// Generate draws the named evaluation dataset at the given scale: the
// city-like "Crime" and "NYC", split into their Table III parts, or one
// of the unsplit synthetic families at the paper's sizes — "Normal"
// (300,000 points of Normal(0,0,1,1,0.5) clipped to (−5, 5)²), "SZipf"
// (100,000) and "MNormal" (300,000).
func Generate(name string, r *rng.RNG, scale Scale) (*Dataset, error) {
	var pts []geom.Point
	var err error
	switch name {
	case "Crime":
		return ChicagoCrimeLike(r, scale)
	case "NYC":
		return NYCGreenTaxiLike(r, scale)
	case "Normal":
		pts, err = Normal(r, scale.Of(300000), 0, 0, 1, 1, 0.5, 5)
	case "SZipf":
		pts, err = SkewZipf(r, scale.Of(100000))
	case "MNormal":
		pts, err = MNormal(r, scale.Of(300000))
	default:
		return nil, fmt.Errorf("synth: unknown dataset %q", name)
	}
	if err != nil {
		return nil, err
	}
	return &Dataset{Name: name, Points: pts}, nil
}

// Normal draws n points from a correlated 2-D Gaussian
// (µx, µy, σx², σy², ρ), rejecting points outside the clip square
// [−clip, clip]² — the paper's Normal(0,0,1,1,0.5) keeps points within
// (−5, 5)².
func Normal(r *rng.RNG, n int, muX, muY, sigX, sigY, rho, clip float64) ([]geom.Point, error) {
	if n < 0 {
		return nil, fmt.Errorf("synth: negative count %d", n)
	}
	if rho <= -1 || rho >= 1 {
		return nil, fmt.Errorf("synth: correlation %v outside (-1, 1)", rho)
	}
	if sigX <= 0 || sigY <= 0 {
		return nil, fmt.Errorf("synth: non-positive standard deviation")
	}
	pts := make([]geom.Point, 0, n)
	c := math.Sqrt(1 - rho*rho)
	for len(pts) < n {
		z1, z2 := r.NormFloat64(), r.NormFloat64()
		x := muX + sigX*z1
		y := muY + sigY*(rho*z1+c*z2)
		if clip > 0 && (math.Abs(x-muX) >= clip || math.Abs(y-muY) >= clip) {
			continue
		}
		pts = append(pts, geom.Point{X: x, Y: y})
	}
	return pts, nil
}

// SkewZipf draws n points whose coordinates independently follow the skew
// Zipf law of Section VII-A with CDF F(x) = log₂(x+1) on [0, 1): inverse
// sampling gives x = 2^U − 1.
func SkewZipf(r *rng.RNG, n int) ([]geom.Point, error) {
	if n < 0 {
		return nil, fmt.Errorf("synth: negative count %d", n)
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: math.Exp2(r.Float64()) - 1,
			Y: math.Exp2(r.Float64()) - 1,
		}
	}
	return pts, nil
}

// MNormal draws the paper's multi-centre normal mixture: three components
// of count n/3 each with correlations 0.5, 0 and −0.2. The paper's
// reported point range ([−4.25, 6.18] × [−4.32, 6.44]) implies distinct
// centres even though the text lists all three at the origin, so the
// components are placed at (0,0), (3,3) and (1.5,−1) to reproduce the
// multi-modal shape.
func MNormal(r *rng.RNG, n int) ([]geom.Point, error) {
	if n < 0 {
		return nil, fmt.Errorf("synth: negative count %d", n)
	}
	type comp struct {
		muX, muY, rho float64
	}
	comps := []comp{{0, 0, 0.5}, {3, 3, 0}, {1.5, -1, -0.2}}
	pts := make([]geom.Point, 0, n)
	for i, c := range comps {
		cnt := n / 3
		if i == len(comps)-1 {
			cnt = n - len(pts)
		}
		sub, err := Normal(r, cnt, c.muX, c.muY, 1, 1, c.rho, 4.5)
		if err != nil {
			return nil, err
		}
		pts = append(pts, sub...)
	}
	return pts, nil
}
