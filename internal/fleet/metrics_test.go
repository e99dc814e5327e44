package fleet_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"dpspatial/internal/collector"
	"dpspatial/internal/fleet"
)

// These tests pin the supervisor's /metrics surface to the routing and
// caching behaviors the rest of the fleet suite proves: the shared
// collector-tier families must move in lockstep with the supervisor's
// exactly-once and hash-keyed-cache semantics, and the fleet-only
// per-member series must agree with /v1/stats.

// scrapeFleetMetrics GETs the supervisor's /metrics exposition.
func scrapeFleetMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + collector.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// fleetSeries extracts one series' value by its exact rendered name; a
// missing series fails the test.
func fleetSeries(t *testing.T, exposition, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || name != series {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("series %s: unparsable value %q", series, val)
		}
		return f
	}
	t.Fatalf("series %s not found in exposition:\n%s", series, exposition)
	return 0
}

// fleetSeriesSum sums a family's series across all label values.
func fleetSeriesSum(t *testing.T, exposition, family string) float64 {
	t.Helper()
	var sum float64
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		base, _, _ := strings.Cut(name, "{")
		if base != family {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("series %s: unparsable value %q", name, val)
		}
		sum += f
	}
	return sum
}

// TestFleetMetricsLockstep drives a two-member fleet through routed
// submissions, a duplicate replay and cached estimates, then checks the
// supervisor's counters: accepted equals routed submissions (and their
// per-member sum), the replay counts once as a duplicate, repeated
// estimates at an unchanged member-state hash are cache hits, and the
// hash-generation counter shows exactly one distinct fleet state.
func TestFleetMetricsLockstep(t *testing.T) {
	mech := newDAM(t, 5, 1.8)
	pipeline := damPipeline(mech, 5, 1.8)
	f := startFleet(t, 2, mech, pipeline)
	ctx := context.Background()
	shards := accumulateShards(t, mech, 4, 33)

	ids := make([]string, len(shards))
	for i, s := range shards {
		blob, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = collector.NewSubmissionID()
		if _, err := f.client.SubmitAggregateBlobWithID(ctx, blob, nil, ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Replay the first submission under its original ID.
	blob, err := shards[0].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	replay, err := f.client.SubmitAggregateBlobWithID(ctx, blob, nil, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if !replay.Duplicate {
		t.Fatal("replayed ID not marked duplicate")
	}
	// First estimate decodes; the second is a hash-keyed cache hit.
	if _, _, err := f.client.Estimate(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.client.Estimate(ctx); err != nil {
		t.Fatal(err)
	}

	exp := scrapeFleetMetrics(t, f.client.BaseURL)
	if got := fleetSeries(t, exp, `dpspatial_submissions_total{outcome="accepted"}`); got != 4 {
		t.Fatalf("accepted = %g after 4 routed submissions, want 4", got)
	}
	if got := fleetSeries(t, exp, `dpspatial_submissions_total{outcome="duplicate"}`); got != 1 {
		t.Fatalf("duplicate = %g after one replay, want 1", got)
	}
	if got := fleetSeriesSum(t, exp, "dpspatial_fleet_member_routed_total"); got != 4 {
		t.Fatalf("per-member routed sum = %g, want 4 (the replay must not route)", got)
	}
	if got := fleetSeries(t, exp, "dpspatial_fleet_members"); got != 2 {
		t.Fatalf("fleet members gauge = %g, want 2", got)
	}
	for _, srv := range f.members {
		healthy := `dpspatial_fleet_member_healthy{member="` + srv.URL + `"}`
		if got := fleetSeries(t, exp, healthy); got != 1 {
			t.Fatalf("%s = %g, want 1", healthy, got)
		}
	}
	if got := fleetSeries(t, exp, `dpspatial_query_cache_misses_total{kind="estimate"}`); got != 1 {
		t.Fatalf("estimate cache misses = %g, want 1", got)
	}
	if got := fleetSeries(t, exp, `dpspatial_query_cache_hits_total{kind="estimate"}`); got != 1 {
		t.Fatalf("estimate cache hits = %g, want 1", got)
	}
	if got := fleetSeries(t, exp, "dpspatial_fleet_state_hash_generations_total"); got != 1 {
		t.Fatalf("state-hash generations = %g after one decoded fleet state, want 1", got)
	}
	if got := fleetSeries(t, exp, `dpspatial_decodes_total{mode="cold"}`); got != 1 {
		t.Fatalf("cold decodes = %g, want 1", got)
	}
	if got := fleetSeries(t, exp, "dpspatial_generation"); got != 4 {
		t.Fatalf("fleet generation gauge = %g, want 4", got)
	}

	// Quiesced supervisor: consecutive scrapes are byte-identical.
	if again := scrapeFleetMetrics(t, f.client.BaseURL); again != exp {
		t.Fatal("two scrapes of a quiesced supervisor differ")
	}
}

// TestFleetMetricsFailoverAndRecovery takes a shard-holding member down
// and checks the failover and health series move with the routing layer:
// the down member's healthy gauge drops to 0 and its failover counter
// moves while submissions keep landing on the survivor, and its return
// shows up as a recovery.
func TestFleetMetricsFailoverAndRecovery(t *testing.T) {
	mech := newDAM(t, 5, 1.8)
	pipeline := damPipeline(mech, 5, 1.8)
	shards := accumulateShards(t, mech, 3, 7)

	gates := make([]*gate, 2)
	urls := make([]string, 2)
	for i := range gates {
		c, err := collector.New(collector.Config{Build: damBuild(t)})
		if err != nil {
			t.Fatal(err)
		}
		gates[i] = &gate{next: c}
		srv := httptest.NewServer(gates[i])
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	sup, err := fleet.New(fleet.Config{
		Members: urls, Mechanism: newDAM(t, 5, 1.8), Pipeline: pipeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	supSrv := httptest.NewServer(sup)
	t.Cleanup(func() { supSrv.Close(); sup.Close() })
	client := collector.NewClient(supSrv.URL)
	ctx := context.Background()

	resp0, err := client.SubmitAggregate(ctx, shards[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	downIdx := 1
	if resp0.Member == urls[0] {
		downIdx = 0
	}
	gates[downIdx].down.Store(true)
	for _, s := range shards[1:] {
		if _, err := client.SubmitAggregate(ctx, s, nil); err != nil {
			t.Fatalf("submission with one member down should fail over: %v", err)
		}
	}

	exp := scrapeFleetMetrics(t, supSrv.URL)
	if got := fleetSeries(t, exp, "dpspatial_fleet_failovers_total"); got < 1 {
		t.Fatalf("fleet failovers = %g with a member down, want >= 1", got)
	}
	downFailovers := `dpspatial_fleet_member_failovers_total{member="` + urls[downIdx] + `"}`
	if got := fleetSeries(t, exp, downFailovers); got < 1 {
		t.Fatalf("%s = %g, want >= 1", downFailovers, got)
	}
	downHealthy := `dpspatial_fleet_member_healthy{member="` + urls[downIdx] + `"}`
	if got := fleetSeries(t, exp, downHealthy); got != 0 {
		t.Fatalf("%s = %g while gated down, want 0", downHealthy, got)
	}
	if got := fleetSeries(t, exp, `dpspatial_submissions_total{outcome="accepted"}`); got != 3 {
		t.Fatalf("accepted = %g (failover must not drop submissions), want 3", got)
	}

	// Member returns: the next successful exchange marks it healthy and
	// counts the unhealthy→healthy transition as a recovery.
	gates[downIdx].down.Store(false)
	if _, _, err := client.Estimate(ctx); err != nil {
		t.Fatal(err)
	}
	exp = scrapeFleetMetrics(t, supSrv.URL)
	if got := fleetSeries(t, exp, downHealthy); got != 1 {
		t.Fatalf("%s = %g after recovery, want 1", downHealthy, got)
	}
	downRecoveries := `dpspatial_fleet_member_recoveries_total{member="` + urls[downIdx] + `"}`
	if got := fleetSeries(t, exp, downRecoveries); got < 1 {
		t.Fatalf("%s = %g after the member rejoined, want >= 1", downRecoveries, got)
	}
}
