package fleet

import (
	"dpspatial/internal/metrics"
)

// The supervisor's /metrics surface: the collector tier's shared
// families (registered by the shared collector.Engine, so one
// dashboard reads both tiers) plus the fleet-only series — per-member
// relabelings of the routing counters and the member-state hash
// generation. Per-member series carry the member's base URL as the
// "member" label; membership is fixed at construction, so the label set
// is bounded by the fleet size.

// memberInstruments are one member's pre-resolved per-member series;
// the member mirrors its supervisor-side counters into them on the same
// transitions that move MemberStats, so /metrics and /v1/stats cannot
// disagree. A nil receiver (members built outside a supervisor, as some
// tests do) makes every update a no-op.
type memberInstruments struct {
	healthy    *metrics.Gauge
	routed     *metrics.Counter
	failovers  *metrics.Counter
	recoveries *metrics.Counter
}

func (mi *memberInstruments) setHealthy(up bool) {
	if mi == nil {
		return
	}
	if up {
		mi.healthy.Set(1)
	} else {
		mi.healthy.Set(0)
	}
}

func (mi *memberInstruments) countRouted() {
	if mi != nil {
		mi.routed.Inc()
	}
}

func (mi *memberInstruments) countFailover() {
	if mi != nil {
		mi.failovers.Inc()
	}
}

func (mi *memberInstruments) countRecovery() {
	if mi != nil {
		mi.recoveries.Inc()
	}
}

// registerFleetMetrics registers the fleet-only families and attaches
// per-member instruments. Called from New after the member list is
// final.
func (s *Supervisor) registerFleetMetrics() {
	reg := s.engine.Registry()
	healthy := reg.GaugeVec("dpspatial_fleet_member_healthy",
		"Last-known liveness of each fleet member (1 = healthy, 0 = unhealthy).",
		"member")
	routed := reg.CounterVec("dpspatial_fleet_member_routed_total",
		"Submissions this supervisor routed to each member and the member accepted.",
		"member")
	failovers := reg.CounterVec("dpspatial_fleet_member_failovers_total",
		"Submissions that failed transiently at each member and moved on in routing order.",
		"member")
	recoveries := reg.CounterVec("dpspatial_fleet_member_recoveries_total",
		"Each member's unhealthy-to-healthy transitions: outages it rejoined the fleet from.",
		"member")
	for _, m := range s.members {
		m.inst = &memberInstruments{
			healthy:    healthy.With(m.url),
			routed:     routed.With(m.url),
			failovers:  failovers.With(m.url),
			recoveries: recoveries.With(m.url),
		}
		m.inst.setHealthy(m.isHealthy())
	}
	s.fleetFailovers = reg.Counter("dpspatial_fleet_failovers_total",
		"Submission attempts that failed over past a member, fleet-wide.")
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
