package trace

// Test-only accessors and checks: the package's tests use them to inspect
// live code, and no product code calls them.

// Context returns the span's trace context — what Outgoing injects into
// the traceparent header of downstream requests.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}
