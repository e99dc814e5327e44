package metrics

// Test-only accessors and checks: the package's tests use them to inspect
// live code, and no product code calls them.

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.inf.Load() }

// Histogram registers (or fetches) a single-series histogram over the
// given bucket upper bounds (sorted ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(name, help, KindHistogram, nil, buckets).get(nil).hist
}
