package collector

// Snapshot is exported to the package's external tests, which force a
// snapshot between submissions; the collector itself snapshots on its
// own schedule.

// Snapshot forces an immediate durable snapshot of the collector state,
// compacting the WAL. It is a no-op on a collector without a store or
// before a mechanism is installed.
func (c *Collector) Snapshot() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}
