package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"dpspatial/internal/collector"
	"dpspatial/internal/metrics"
)

// memberTimeout bounds how long a member may leave the supervisor
// waiting. An exchange the supervisor starts on its own account — an
// aggregate pull or a stats fetch — has that long in all, and a routed
// forward has that long to get the member's answer once the body is
// sent, however long the upload took. A member that accepts connections
// but never answers then fails the first pull or forward and reads
// unhealthy, where waiting out the tick's deadline or the client's
// would leave its health unchanged.
const memberTimeout = 2 * time.Second

// member is one downstream collector in the fleet: its client, its
// health, and its routing counters. The health gauge and the counters
// are the member's series on the supervisor's /metrics, and the only
// record of them: /v1/stats reads the same values. Health moves only on
// exchanges the supervisor makes anyway — routed forwards, and the
// pulls of every read and cadence tick. It is advisory: routing prefers
// healthy members but falls back to unhealthy ones when nothing else
// accepts, so a recovered member rejoins on its first successful
// exchange.
type member struct {
	url    string
	client *collector.Client

	healthy    *metrics.Gauge   // 1 = healthy, 0 = unhealthy
	routed     *metrics.Counter // submissions this supervisor routed here and the member accepted
	failovers  *metrics.Counter // submissions that had to fail over past this member
	recoveries *metrics.Counter // unhealthy→healthy transitions: rejoins after an outage

	// mu orders the health transitions and guards the fields below.
	mu        sync.Mutex
	lastError string
	// nonEmpty latches once the member was ever observed holding merged
	// reports (via an aggregate pull or its stats) — including shards
	// that reached it outside this supervisor, or before a supervisor
	// restart wiped the routed counter. An unreachable member with this
	// set must fail the fleet estimate: its data cannot be proven
	// absent from the union.
	nonEmpty bool
}

// newMembers builds the fleet's members in the configured order, each
// with its per-member series resolved on reg and starting healthy. The
// series carry the member's base URL as the "member" label; membership
// is fixed at construction, so the label set is bounded by the fleet
// size.
func newMembers(reg *metrics.Registry, urls []string, authToken string) ([]*member, error) {
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
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.ResponseHeaderTimeout = memberTimeout
	httpc := &http.Client{Transport: transport}
	out := make([]*member, 0, len(urls))
	seen := make(map[string]bool, len(urls))
	for _, u := range urls {
		c := collector.NewClient(u)
		c.AuthToken = authToken
		c.HTTPClient = httpc
		url := c.BaseURL
		if seen[url] {
			return nil, fmt.Errorf("fleet: duplicate member %s", url)
		}
		seen[url] = true
		m := &member{url: url, client: c,
			healthy: healthy.With(url), routed: routed.With(url),
			failovers: failovers.With(url), recoveries: recoveries.With(url)}
		m.healthy.Set(1)
		out = append(out, m)
	}
	return out, nil
}

func (m *member) isHealthy() bool { return m.healthy.Value() == 1 }

func (m *member) markHealthy() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.isHealthy() {
		m.recoveries.Inc()
	}
	m.healthy.Set(1)
	m.lastError = ""
}

func (m *member) markUnhealthy(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.healthy.Set(0)
	m.lastError = err.Error()
}

// notePull sets the member's health from its answer to an aggregate
// pull: healthy when its stack answered — with a blob, or with a 409
// because it holds no mechanism yet — and unhealthy on any other
// failure, a missed memberTimeout among them. ctx is the puller's own
// context, not the per-member one: a failure after the puller left says
// nothing about the member, so it leaves the health as it was.
func (m *member) notePull(ctx context.Context, err error) {
	var se *collector.StatusError
	switch {
	case err == nil, errors.As(err, &se) && se.StatusCode == http.StatusConflict:
		m.markHealthy()
	case ctx.Err() == nil:
		m.markUnhealthy(err)
	}
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
	return m.routed.Value() > 0 || m.isNonEmpty()
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
		Healthy:    m.isHealthy(),
		LastError:  m.lastError,
		Routed:     uint64(m.routed.Value()),
		Failovers:  uint64(m.failovers.Value()),
		Recoveries: uint64(m.recoveries.Value()),
	}
}
