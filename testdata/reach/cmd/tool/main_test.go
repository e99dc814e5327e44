package main

import (
	"testing"

	"planted/internal/shapes"
)

func TestUnitSquare(t *testing.T) {
	if shapes.Unit().Side != 1 {
		t.Fatal("unit square")
	}
}
