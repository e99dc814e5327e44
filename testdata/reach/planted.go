// Package planted is a fixture for the reachability gate in
// deadcode_test.go: a module whose declarations cover each rule.
package planted

import "planted/internal/shapes"

// Area is the module's exported API.
func Area(s shapes.Shape) float64 { return s.Area() }
