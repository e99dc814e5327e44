package collector

import "dpspatial/internal/trace"

// Snapshot and the two Tracer accessors are exported to the package's
// external tests: they force a snapshot between submissions, which the
// collector otherwise takes on its own schedule, and read the trace ring
// in process. CheckAck is exported for FuzzSnapshotAck.

// CheckAck is recovery's check of one snapshot ack.
var CheckAck = checkAck

// Snapshot forces an immediate durable snapshot of the collector state,
// compacting the WAL. It is a no-op on a collector without a store or
// before a mechanism is installed.
func (c *Collector) Snapshot() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}

// Tracer exposes the collector's completed-trace ring — nil when the
// collector was built with DisableTraces.
func (c *Collector) Tracer() *trace.Tracer { return c.engine.tracer }

// Tracer exposes the engine's completed-trace ring — nil when tracing is
// disabled.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }
