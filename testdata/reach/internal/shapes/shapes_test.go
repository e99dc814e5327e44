package shapes

import "testing"

func TestPerimeter(t *testing.T) {
	if got := Perimeter(Square{Side: 2}); got != 8 {
		t.Fatal(got)
	}
}
