package fleet

import "dpspatial/internal/trace"

// Tracer exposes the supervisor's completed-trace ring to the package's
// external tests — nil when the supervisor was built with DisableTraces.
func (s *Supervisor) Tracer() *trace.Tracer { return s.engine.Tracer() }
