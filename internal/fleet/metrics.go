package fleet

// The supervisor's /metrics surface: the collector tier's shared
// families (registered by the shared collector.Engine, so one
// dashboard reads both tiers), the per-member series each member holds
// (newMembers), and the fleet-wide series below.

// registerFleetMetrics registers the fleet-wide families. Called from
// New after the member list is final.
func (s *Supervisor) registerFleetMetrics() {
	reg := s.engine.Registry()
	reg.CounterFunc("dpspatial_fleet_failovers_total",
		"Submission attempts that failed over past a member, fleet-wide.",
		func() float64 {
			var n float64
			for _, m := range s.members {
				n += m.failovers.Value()
			}
			return n
		})
	// The engine decodes an estimate exactly when the member-blob hash
	// moved off the cached one, so its decode count is this counter.
	reg.CounterFunc("dpspatial_fleet_state_hash_generations_total",
		"Distinct member-state hashes decoded: how many times the fleet-wide member-blob hash changed and forced a fresh decode.",
		func() float64 {
			decodes, _ := s.engine.DecodeStats()
			return float64(decodes.Estimates)
		})
	reg.Gauge("dpspatial_fleet_members",
		"Configured fleet members.").Set(float64(len(s.members)))
	reg.GaugeFunc("dpspatial_generation",
		"Submissions accepted by a member via this supervisor (the fleet generation).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.stats.Routed)
		})
	reg.GaugeFunc("dpspatial_estimate_generation",
		"Routed-submission count the served fleet estimate was decoded at (0 = no estimate yet).",
		func() float64 {
			_, gen := s.engine.DecodeStats()
			return float64(gen)
		})
}
