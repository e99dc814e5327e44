package fleet

import (
	"context"
	"strings"
	"sync"
	"time"

	"dpspatial/internal/collector"
)

// member is one downstream collector in the fleet: its client, its
// last-known health, and the supervisor-side routing counters. Health is
// advisory — routing prefers healthy members but falls back to unhealthy
// ones when nothing else accepts, so a recovered member rejoins the
// fleet on its first successful exchange even without a probe loop.
type member struct {
	url    string
	client *collector.Client
	// inst mirrors the routing counters into the supervisor's /metrics
	// per-member series; nil (and a no-op) for members built outside a
	// supervisor.
	inst *memberInstruments

	mu         sync.Mutex
	healthy    bool
	lastError  string
	routed     uint64 // submissions this supervisor routed here and the member accepted
	failovers  uint64 // submissions that had to fail over past this member
	recoveries uint64 // unhealthy→healthy transitions: rejoins after an outage
	// nonEmpty latches once the member was ever observed holding merged
	// reports (via an aggregate pull or its stats) — including shards
	// that reached it outside this supervisor, or before a supervisor
	// restart wiped the routed counter. An unreachable member with this
	// set must fail the fleet estimate: its data cannot be proven
	// absent from the union.
	nonEmpty bool
}

func newMember(url, authToken string) *member {
	c := collector.NewClient(url)
	c.AuthToken = authToken
	return &member{url: strings.TrimRight(url, "/"), client: c, healthy: true}
}

func (m *member) isHealthy() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.healthy
}

func (m *member) markHealthy() {
	m.mu.Lock()
	if !m.healthy {
		m.recoveries++
		m.inst.countRecovery()
	}
	m.healthy, m.lastError = true, ""
	m.inst.setHealthy(true)
	m.mu.Unlock()
}

func (m *member) markUnhealthy(err error) {
	m.mu.Lock()
	m.healthy = false
	if err != nil {
		m.lastError = err.Error()
	}
	m.inst.setHealthy(false)
	m.mu.Unlock()
}

func (m *member) countRouted() {
	m.mu.Lock()
	m.routed++
	m.inst.countRouted()
	m.mu.Unlock()
}

func (m *member) countFailover() {
	m.mu.Lock()
	m.failovers++
	m.inst.countFailover()
	m.mu.Unlock()
}

// noteNonEmpty latches the member as having been seen with data.
func (m *member) noteNonEmpty() {
	m.mu.Lock()
	m.nonEmpty = true
	m.mu.Unlock()
}

// mayHoldData reports whether an unreachable member could hold shards
// the fleet estimate must cover: the supervisor routed submissions to
// it, or it was ever observed non-empty.
func (m *member) mayHoldData() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.routed > 0 || m.nonEmpty
}

// isNonEmpty reports whether the member was ever positively observed
// holding reports — the signal that a later N=0 answer means data loss
// (a restart), not a genuinely empty member.
func (m *member) isNonEmpty() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nonEmpty
}

func (m *member) snapshot() MemberStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemberStats{
		URL:        m.url,
		Healthy:    m.healthy,
		LastError:  m.lastError,
		Routed:     m.routed,
		Failovers:  m.failovers,
		Recoveries: m.recoveries,
	}
}

// probe updates the member's health flag off its /healthz.
func (m *member) probe(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := m.client.Health(ctx); err != nil {
		m.markUnhealthy(err)
		return
	}
	m.markHealthy()
}
