package mdsw

import "dpspatial/internal/fo"

// Test-only accessors and checks: the package's tests use them to inspect
// live code, and no product code calls them.

// Linear exposes the exact bucket-level channel in its structured
// uniform-plus-sparse form — the representation estimation runs on.
func (s *SW) Linear() *fo.UniformSparse { return s.linear }
