package fleet_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dpspatial/internal/collector"
	"dpspatial/internal/fleet"
)

// A member's health moves only on the exchanges the supervisor makes
// anyway: routed forwards, and the member pulls of every read and
// cadence tick. These tests pin the pull's half, and a forward to a
// member that never answers.

// memberState picks one member's entry from the supervisor's
// /v1/stats, presenting token when it is non-empty.
func memberState(t *testing.T, supURL, token, memberURL string) fleet.MemberStats {
	t.Helper()
	for _, m := range fetchFleetStats(t, supURL, token).Members {
		if m.URL == memberURL {
			return m
		}
	}
	t.Fatalf("fleet stats list no member %s", memberURL)
	return fleet.MemberStats{}
}

// waitMemberHealth polls memberState until the member's health reads
// healthy, or fails the test after ten seconds.
func waitMemberHealth(t *testing.T, supURL, memberURL string, healthy bool) fleet.MemberStats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := memberState(t, supURL, "", memberURL)
		if m.Healthy == healthy {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("member %s never read healthy=%v: %+v", memberURL, healthy, m)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// estimateStatus asks the supervisor for its estimate and returns the
// HTTP status of a refusal, or 200.
func estimateStatus(t *testing.T, client *collector.Client) int {
	t.Helper()
	_, _, err := client.Estimate(context.Background())
	var se *collector.StatusError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &se):
		return se.StatusCode
	}
	t.Fatal(err)
	return 0
}

// TestRefusedPullsKeepMemberUnhealthy runs a pinned supervisor with a
// 20 ms cadence over a member that refuses the supervisor's token with
// 401. Every tick's pull is refused, and nothing else marks the member
// healthy between pulls, so after 25 pulls it reads unhealthy with no
// recovery.
func TestRefusedPullsKeepMemberUnhealthy(t *testing.T) {
	mech := newDAM(t, 5, 1.8)
	c, err := collector.New(collector.Config{Build: damBuild(t), AuthToken: "member-secret"})
	if err != nil {
		t.Fatal(err)
	}
	var pulls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == "/v1/aggregate" {
			pulls.Add(1)
		}
		c.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	sup, err := fleet.New(fleet.Config{
		Members: []string{srv.URL}, Mechanism: mech, Pipeline: damPipeline(mech, 5, 1.8),
		AuthToken: "sup-secret", Cadence: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	supSrv := httptest.NewServer(sup)
	t.Cleanup(supSrv.Close)
	sup.Start()
	deadline := time.Now().Add(10 * time.Second)
	for pulls.Load() < 25 {
		if time.Now().After(deadline) {
			sup.Close()
			t.Fatalf("the cadence loop pulled %d times, want 25", pulls.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	sup.Close()
	m := memberState(t, supSrv.URL, "sup-secret", srv.URL)
	if m.Healthy || m.Recoveries != 0 {
		t.Fatalf("member refusing every pull reads healthy=%v with %d recoveries, want unhealthy with 0", m.Healthy, m.Recoveries)
	}
}

// TestConflictingPullMarksMemberHealthy takes a shard-holding member
// through an outage, after which it comes back empty and in adopt mode,
// so it answers the pull with 409. Its stack answered, so it reads
// healthy again, with one recovery, while the estimate is still refused
// with 503: the shard it held is gone.
func TestConflictingPullMarksMemberHealthy(t *testing.T) {
	mech := newDAM(t, 5, 1.8)
	adoptMode := func() http.Handler {
		c, err := collector.New(collector.Config{Build: damBuild(t)})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	front := &swapHandler{h: adoptMode()}
	srv := httptest.NewServer(front)
	t.Cleanup(srv.Close)
	sup, err := fleet.New(fleet.Config{
		Members: []string{srv.URL}, Mechanism: mech, Pipeline: damPipeline(mech, 5, 1.8),
	})
	if err != nil {
		t.Fatal(err)
	}
	supSrv := httptest.NewServer(sup)
	t.Cleanup(supSrv.Close)
	client := collector.NewClient(supSrv.URL)
	if _, err := client.SubmitAggregate(context.Background(), accumulateShards(t, mech, 1, 71)[0], nil); err != nil {
		t.Fatal(err)
	}

	front.swap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"member down"}`, http.StatusServiceUnavailable)
	}))
	if got := estimateStatus(t, client); got != http.StatusServiceUnavailable {
		t.Fatalf("estimate during the outage answered %d, want 503", got)
	}
	if m := memberState(t, supSrv.URL, "", srv.URL); m.Healthy {
		t.Fatalf("member reads healthy during its outage: %+v", m)
	}

	front.swap(adoptMode())
	if got := estimateStatus(t, client); got != http.StatusServiceUnavailable {
		t.Fatalf("estimate over a member that lost its shard answered %d, want 503", got)
	}
	if m := memberState(t, supSrv.URL, "", srv.URL); !m.Healthy || m.Recoveries != 1 {
		t.Fatalf("member answering the pull with 409 reads healthy=%v with %d recoveries, want healthy with 1", m.Healthy, m.Recoveries)
	}
}

// TestRefusedPullRefreshesEveryMember has two shard-holding members.
// Member 1 goes down and is marked so by a pull; then it comes back
// while member 0 goes down. The next pull refuses at member 0, first in
// fleet order, and still marks member 1 healthy again.
func TestRefusedPullRefreshesEveryMember(t *testing.T) {
	mech := newDAM(t, 5, 1.8)
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
	sup, err := fleet.New(fleet.Config{Members: urls, Mechanism: mech, Pipeline: damPipeline(mech, 5, 1.8)})
	if err != nil {
		t.Fatal(err)
	}
	supSrv := httptest.NewServer(sup)
	t.Cleanup(supSrv.Close)
	client := collector.NewClient(supSrv.URL)
	held := map[string]bool{}
	for _, shard := range accumulateShards(t, mech, 2, 73) {
		resp, err := client.SubmitAggregate(context.Background(), shard, nil)
		if err != nil {
			t.Fatal(err)
		}
		held[resp.Member] = true
	}
	if len(held) != 2 {
		t.Fatalf("two submissions landed on %v, want one on each member", held)
	}

	gates[1].down.Store(true)
	if got := estimateStatus(t, client); got != http.StatusServiceUnavailable {
		t.Fatalf("estimate with member 1 down answered %d, want 503", got)
	}
	if m := memberState(t, supSrv.URL, "", urls[1]); m.Healthy {
		t.Fatalf("member 1 reads healthy while down: %+v", m)
	}

	gates[1].down.Store(false)
	gates[0].down.Store(true)
	if got := estimateStatus(t, client); got != http.StatusServiceUnavailable {
		t.Fatalf("estimate with member 0 down answered %d, want 503", got)
	}
	if m := memberState(t, supSrv.URL, "", urls[0]); m.Healthy {
		t.Fatalf("member 0 reads healthy while down: %+v", m)
	}
	if m := memberState(t, supSrv.URL, "", urls[1]); !m.Healthy || m.Recoveries != 1 {
		t.Fatalf("member 1 after the refused pull reads healthy=%v with %d recoveries, want healthy with 1", m.Healthy, m.Recoveries)
	}
}

// TestCadencePullsTrackMemberHealth runs a pinned supervisor with a
// 20 ms cadence over two empty pinned members and submits nothing: the
// cadence pulls alone mark a member gated down unhealthy, and healthy
// again, with one recovery, once the gate opens.
func TestCadencePullsTrackMemberHealth(t *testing.T) {
	mech := newDAM(t, 5, 1.8)
	pipeline := damPipeline(mech, 5, 1.8)
	gates := make([]*gate, 2)
	urls := make([]string, 2)
	for i := range gates {
		c, err := collector.New(collector.Config{Mechanism: newDAM(t, 5, 1.8), Pipeline: pipeline})
		if err != nil {
			t.Fatal(err)
		}
		gates[i] = &gate{next: c}
		srv := httptest.NewServer(gates[i])
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	sup, err := fleet.New(fleet.Config{Members: urls, Mechanism: mech, Pipeline: pipeline, Cadence: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	supSrv := httptest.NewServer(sup)
	t.Cleanup(func() { supSrv.Close(); sup.Close() })
	sup.Start()

	gates[0].down.Store(true)
	waitMemberHealth(t, supSrv.URL, urls[0], false)
	gates[0].down.Store(false)
	if m := waitMemberHealth(t, supSrv.URL, urls[0], true); m.Recoveries != 1 {
		t.Fatalf("member back from its gate has %d recoveries, want 1", m.Recoveries)
	}
	if m := memberState(t, supSrv.URL, "", urls[1]); !m.Healthy || m.Recoveries != 0 {
		t.Fatalf("member that stayed up reads %+v, want healthy with no recovery", m)
	}
}

// TestCadencePullMarksHungMemberUnhealthy runs a pinned supervisor with
// a 20 ms cadence over a member that accepts connections but never
// answers. Each tick's pull of it misses the per-member deadline, so it
// reads unhealthy within a few ticks rather than at the tick's own,
// longer deadline.
func TestCadencePullMarksHungMemberUnhealthy(t *testing.T) {
	mech := newDAM(t, 5, 1.8)
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(srv.Close)
	sup, err := fleet.New(fleet.Config{
		Members: []string{srv.URL}, Mechanism: mech, Pipeline: damPipeline(mech, 5, 1.8),
		Cadence: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	supSrv := httptest.NewServer(sup)
	t.Cleanup(func() { supSrv.Close(); sup.Close() })
	// Runs first: the pull in flight returns, so sup.Close need not wait
	// out its deadline.
	t.Cleanup(func() { close(release) })
	sup.Start()

	// /metrics answers without asking the members, so the poll itself
	// does not wait on the hung one.
	healthy := `dpspatial_fleet_member_healthy{member="` + srv.URL + `"}`
	deadline := time.Now().Add(10 * time.Second)
	for fleetSeries(t, scrapeFleetMetrics(t, supSrv.URL), healthy) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("hung member still reads healthy after 10 s of 20 ms cadence pulls")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestForwardMarksHungMemberUnhealthy routes six submissions, each with
// a 5 s client deadline, through a pinned supervisor over a member that
// reads the body of any request and never answers, and a live member.
// The one forward that reaches the hung member gives up once it has
// waited 2 s for an answer: it marks the member unhealthy and refuses
// 503 with the unknown-state mark, and the live member accepts the
// other five. The /v1/stats read after it does not ask the member it
// marked unhealthy, so it answers at once.
func TestForwardMarksHungMemberUnhealthy(t *testing.T) {
	mech := newDAM(t, 5, 1.8)
	pipeline := damPipeline(mech, 5, 1.8)
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(hung.Close)
	live, err := collector.New(collector.Config{Mechanism: newDAM(t, 5, 1.8), Pipeline: pipeline})
	if err != nil {
		t.Fatal(err)
	}
	liveSrv := httptest.NewServer(live)
	t.Cleanup(liveSrv.Close)
	sup, err := fleet.New(fleet.Config{Members: []string{hung.URL, liveSrv.URL}, Mechanism: mech, Pipeline: pipeline})
	if err != nil {
		t.Fatal(err)
	}
	supSrv := httptest.NewServer(sup)
	t.Cleanup(func() { supSrv.Close(); sup.Close() })
	// Runs first: a handler still waiting returns, so the servers close.
	t.Cleanup(func() { close(release) })

	client := collector.NewClient(supSrv.URL)
	refused := 0
	for i, shard := range accumulateShards(t, mech, 6, 79) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		resp, err := client.SubmitAggregate(ctx, shard, nil)
		cancel()
		var se *collector.StatusError
		switch {
		case err == nil:
			if resp.Member != liveSrv.URL {
				t.Fatalf("submission %d acked by %s, want the live member", i, resp.Member)
			}
		case errors.As(err, &se) && se.StatusCode == http.StatusServiceUnavailable && se.SubmissionStateUnknown:
			refused++
		default:
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	if refused != 1 {
		t.Fatalf("%d of 6 submissions refused, want 1", refused)
	}
	start := time.Now()
	m := memberState(t, supSrv.URL, "", hung.URL)
	if took := time.Since(start); took > time.Second {
		t.Fatalf("/v1/stats took %v with the hung member marked unhealthy, want under 1 s", took)
	}
	if m.Healthy || !strings.Contains(m.LastError, "timeout awaiting response headers") {
		t.Fatalf("hung member reads %+v, want unhealthy after a response-header timeout", m)
	}
	if m.Generation != 0 || m.Reports != 0 || m.Durability != nil {
		t.Fatalf("unhealthy member reads %+v, want no generation, reports or durability", m)
	}
}
