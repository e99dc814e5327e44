package trajectory

import "dpspatial/internal/geom"

// Test-only accessors and checks: the package's tests use them to inspect
// live code, and no product code calls them.

// Points flattens trajectories into a single point slice.
func Points(trajs []Trajectory) []geom.Point {
	var out []geom.Point
	for _, tr := range trajs {
		out = append(out, tr...)
	}
	return out
}
