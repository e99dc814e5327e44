package shapes_test

import (
	"testing"

	"planted"
	"planted/internal/shapes"
)

// planted imports shapes, which has in-package tests, so go test builds
// planted again against the tested shapes for this external test. The
// gate must as well: against the untested shapes, planted.Area's
// parameter is a different shapes.Shape and this line does not
// type-check.
var _ func(shapes.Shape) float64 = planted.Area

func TestArea(t *testing.T) {
	if got := planted.Area(shapes.Square{Side: 3}); got != 9 {
		t.Fatal(got)
	}
}
