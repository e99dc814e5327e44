package fleet_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpspatial/internal/collector"
	"dpspatial/internal/durable"
	"dpspatial/internal/fleet"
	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
	"dpspatial/internal/rng"
	"dpspatial/internal/sam"
)

func newDAM(t *testing.T, d int, eps float64) *sam.Mechanism {
	t.Helper()
	dom, err := grid.NewDomain(0, 0, 1, d)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sam.NewDAM(dom, eps)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func damPipeline(mech *sam.Mechanism, d int, eps float64) *collector.Pipeline {
	return &collector.Pipeline{
		Mech: "DAM", D: d, Eps: eps,
		Scheme: mech.Scheme(), Shape: mech.ReportShape(),
		Domain: collector.DomainSpec{MinX: 0, MinY: 0, Side: 1},
	}
}

func damBuild(t *testing.T) func(p *collector.Pipeline) (collector.Estimator, error) {
	t.Helper()
	return func(p *collector.Pipeline) (collector.Estimator, error) {
		dom, err := p.GridDomain()
		if err != nil {
			return nil, err
		}
		if p.Mech != "DAM" {
			return nil, fmt.Errorf("test builder only builds DAM, not %q", p.Mech)
		}
		return sam.NewDAM(dom, p.Eps)
	}
}

// testFleet is a supervisor fronting n real collectors, all over
// httptest HTTP.
type testFleet struct {
	client  *collector.Client // points at the supervisor
	members []*httptest.Server
}

// startFleet wires n adopt-mode collectors under a supervisor. A nil
// mech starts the supervisor in adopt mode too; otherwise the fleet is
// pre-built and pinned to mech's pipeline.
func startFleet(t *testing.T, n int, mech *sam.Mechanism, pipeline *collector.Pipeline) *testFleet {
	t.Helper()
	f := &testFleet{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		c, err := collector.New(collector.Config{Build: damBuild(t)})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(c)
		t.Cleanup(srv.Close)
		f.members = append(f.members, srv)
		urls[i] = srv.URL
	}
	cfg := fleet.Config{Members: urls}
	if mech != nil {
		cfg.Mechanism = mech
		cfg.Pipeline = pipeline
	} else {
		cfg.Build = damBuild(t)
	}
	sup, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sup)
	t.Cleanup(func() { srv.Close(); sup.Close() })
	f.client = collector.NewClient(srv.URL)
	return f
}

// accumulateShards streams deterministic reports through the
// mechanism's client layer, round-robin over the requested number of
// shard aggregates, on a single RNG stream.
func accumulateShards(t *testing.T, mech *sam.Mechanism, shards int, seed uint64) []*fo.Aggregate {
	t.Helper()
	out := make([]*fo.Aggregate, shards)
	for s := range out {
		out[s] = mech.NewAggregate()
	}
	r := rng.New(seed)
	user := 0
	for i := 0; i < mech.NumInputs(); i++ {
		for k := 0; k < 3+(i*5)%11; k++ {
			rep, err := mech.Report(i, r)
			if err != nil {
				t.Fatal(err)
			}
			if err := out[user%shards].Add(rep); err != nil {
				t.Fatal(err)
			}
			user++
		}
	}
	return out
}

func mergeAll(t *testing.T, mech *sam.Mechanism, shards []*fo.Aggregate) *fo.Aggregate {
	t.Helper()
	merged := mech.NewAggregate()
	for _, s := range shards {
		if err := merged.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	return merged
}

// collectReports draws n raw reports for report-stream submissions.
func collectReports(t *testing.T, mech *sam.Mechanism, n int, seed uint64) []fo.Report {
	t.Helper()
	r := rng.New(seed)
	out := make([]fo.Report, 0, n)
	for i := 0; i < n; i++ {
		rep, err := mech.Report(i%mech.NumInputs(), r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rep)
	}
	return out
}

// TestFleetEstimateByteIdenticalToInProcess is the acceptance check one
// level up from the collector's: shards routed through a supervisor —
// for any member count — decode to exactly the histogram
// EstimateFromAggregate produces on the union of the same shards in
// process. The fleet's first decode is a hierarchical merge
// followed by a cold start, so this holds bit-for-bit.
func TestFleetEstimateByteIdenticalToInProcess(t *testing.T) {
	mech := newDAM(t, 6, 1.5)
	pipeline := damPipeline(mech, 6, 1.5)
	shards := accumulateShards(t, mech, 4, 11)
	reports := collectReports(t, mech, 150, 17)
	inproc := mergeAll(t, mech, shards)
	for _, rep := range reports {
		if err := inproc.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	want, err := mech.EstimateFromAggregate(inproc)
	if err != nil {
		t.Fatal(err)
	}

	for _, members := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("members=%d/round-robin", members), func(t *testing.T) {
			f := startFleet(t, members, newDAM(t, 6, 1.5), pipeline)
			ctx := context.Background()
			// Mix the framings: binary aggregate shards without
			// metadata (the supervisor injects the pin) and one
			// report stream shard.
			for _, s := range shards {
				if _, err := f.client.SubmitAggregate(ctx, s, nil); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := f.client.SubmitReports(ctx, pipeline, reports); err != nil {
				t.Fatal(err)
			}
			got, meta, err := f.client.Estimate(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Warm {
				t.Fatal("first fleet decode should be a cold start")
			}
			if meta.Reports != inproc.N {
				t.Fatalf("fleet merged %g reports, want %g", meta.Reports, inproc.N)
			}
			if got.Dom != want.Dom {
				t.Fatalf("domain mismatch: %+v vs %+v", got.Dom, want.Dom)
			}
			if !reflect.DeepEqual(got.Mass, want.Mass) {
				t.Fatal("fleet estimate is not byte-identical to the in-process EstimateFromAggregate")
			}
			// The fleet-merged aggregate blob equals the in-process
			// union's encoding, so supervisors chain losslessly.
			merged, err := f.client.FetchAggregate(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(merged, inproc) {
				t.Fatal("fleet-merged aggregate differs from the in-process union")
			}
		})
	}
}

// TestFleetConcurrentRandomizedByteIdentity randomises both the member
// assignment (round-robin over a shuffled submission order) and the
// arrival interleaving (concurrent goroutines), across several trials:
// every trial's fleet estimate must be byte-identical to the serial
// in-process decode of the union.
func TestFleetConcurrentRandomizedByteIdentity(t *testing.T) {
	mech := newDAM(t, 5, 2.0)
	pipeline := damPipeline(mech, 5, 2.0)
	shards := accumulateShards(t, mech, 8, 23)
	want, err := mech.EstimateFromAggregate(mergeAll(t, mech, shards))
	if err != nil {
		t.Fatal(err)
	}

	shuffle := rand.New(rand.NewSource(4))
	for trial := 0; trial < 4; trial++ {
		f := startFleet(t, 3, newDAM(t, 5, 2.0), pipeline)
		ctx := context.Background()
		order := shuffle.Perm(len(shards))
		var wg sync.WaitGroup
		errs := make(chan error, len(shards))
		for _, i := range order {
			wg.Add(1)
			go func(shard *fo.Aggregate) {
				defer wg.Done()
				if _, err := f.client.SubmitAggregate(ctx, shard, nil); err != nil {
					errs <- err
				}
			}(shards[i])
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		got, _, err := f.client.Estimate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Mass, want.Mass) {
			t.Fatalf("trial %d: concurrent randomized fleet estimate differs from the serial decode", trial)
		}
	}
}

// TestFleetTransactionalAdoption starts an adopt-mode supervisor over
// adopt-mode members: rejected first submissions must lock neither the
// fleet nor any member, a valid one pins the pipeline fleet-wide, and
// mismatched later submissions are refused at the supervisor.
func TestFleetTransactionalAdoption(t *testing.T) {
	mech := newDAM(t, 5, 1.5)
	pipeline := damPipeline(mech, 5, 1.5)
	f := startFleet(t, 2, nil, nil)
	ctx := context.Background()
	shards := accumulateShards(t, mech, 2, 3)

	// No metadata, no pin: refused before any member sees it.
	if _, err := f.client.SubmitAggregate(ctx, shards[0], nil); err == nil {
		t.Fatal("headerless submission before adoption should fail")
	}
	// A valid header on a blob of the wrong shape: the supervisor must
	// reject the shard before any member sees it, and the rejection must
	// roll back adoption everywhere.
	foreign := newDAM(t, 6, 2.0)
	if _, err := f.client.SubmitAggregate(ctx, foreign.NewAggregate(), pipeline); err == nil {
		t.Fatal("mismatched blob should be rejected")
	}
	stats, err := f.client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scheme != "" {
		t.Fatalf("rejected submission locked the fleet to %q", stats.Scheme)
	}

	// A valid first submission adopts fleet-wide.
	if _, err := f.client.SubmitAggregate(ctx, shards[0], pipeline); err != nil {
		t.Fatal(err)
	}
	// A later bare-blob submission routed to the *other* member works
	// too: the supervisor injects the pinned pipeline, so the fresh
	// member adopts on contact.
	if _, err := f.client.SubmitAggregate(ctx, shards[1], nil); err != nil {
		t.Fatal(err)
	}
	// Same scheme, different domain: refused once pinned.
	other := *pipeline
	other.Domain = collector.DomainSpec{MinX: 40.7, MinY: -74.0, Side: 0.2}
	if _, err := f.client.SubmitAggregate(ctx, shards[1], &other); err == nil {
		t.Fatal("same-scheme shard from a different domain should be refused")
	}
	// And the fleet estimate covers both members' shards.
	want, err := mech.EstimateFromAggregate(mergeAll(t, mech, shards))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := f.client.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Mass, want.Mass) {
		t.Fatal("adopted fleet's estimate differs from the in-process union decode")
	}
}

// gate wraps a member handler so tests can take the member down (every
// request answers 503) and bring it back, without tearing down the
// listener.
type gate struct {
	down atomic.Bool
	next http.Handler
}

func (g *gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.down.Load() {
		http.Error(w, `{"error":"member down for maintenance"}`, http.StatusServiceUnavailable)
		return
	}
	g.next.ServeHTTP(w, r)
}

// TestFleetFailoverAndEstimateSafety takes a member down and checks (a)
// submissions fail over to the surviving member and are counted, (b)
// the estimate refuses with 503 while a member holding routed shards is
// away — serving a partial union would silently drop data — and (c)
// everything recovers when the member returns.
func TestFleetFailoverAndEstimateSafety(t *testing.T) {
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
	t.Cleanup(supSrv.Close)
	client := collector.NewClient(supSrv.URL)
	ctx := context.Background()

	// Shard 0 lands on some member; take THAT member down and submit
	// two more — both must fail over to the surviving one.
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
		resp, err := client.SubmitAggregate(ctx, s, nil)
		if err != nil {
			t.Fatalf("submission with one member down should fail over: %v", err)
		}
		if resp.Member == urls[downIdx] {
			t.Fatal("submission reported the down member as its route")
		}
	}
	stats := fetchFleetStats(t, supSrv.URL, "")
	if stats.Failovers == 0 {
		t.Fatal("failovers not counted")
	}
	downReported := false
	for _, m := range stats.Members {
		if m.URL == urls[downIdx] && !m.Healthy {
			downReported = true
		}
	}
	if !downReported {
		t.Fatal("down member not reported unhealthy in fleet stats")
	}

	// The down member holds shard 0, so the estimate must refuse rather
	// than serve a partial union that silently drops it.
	if _, _, err := client.Estimate(ctx); err == nil {
		t.Fatal("estimate with a shard-holding member down should fail")
	}

	// Member returns: the estimate covers all three shards again.
	gates[downIdx].down.Store(false)
	want, err := mech.EstimateFromAggregate(mergeAll(t, mech, shards))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := client.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Mass, want.Mass) {
		t.Fatal("post-recovery fleet estimate differs from the in-process union decode")
	}
}

// TestFleetEstimateSurvivesEmptyMemberDown takes a member down BEFORE
// it ever accepted a shard: submissions fail over and the estimate
// still serves — an unreachable member that provably holds nothing
// routed must not block the fleet.
func TestFleetEstimateSurvivesEmptyMemberDown(t *testing.T) {
	mech := newDAM(t, 5, 1.8)
	pipeline := damPipeline(mech, 5, 1.8)
	shards := accumulateShards(t, mech, 2, 19)

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
	gates[1].down.Store(true)
	sup, err := fleet.New(fleet.Config{
		Members: urls, Mechanism: newDAM(t, 5, 1.8), Pipeline: pipeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	supSrv := httptest.NewServer(sup)
	t.Cleanup(supSrv.Close)
	client := collector.NewClient(supSrv.URL)
	ctx := context.Background()

	for _, s := range shards {
		resp, err := client.SubmitAggregate(ctx, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Member != urls[0] {
			t.Fatalf("submission landed on %s, want the live member %s", resp.Member, urls[0])
		}
	}
	want, err := mech.EstimateFromAggregate(mergeAll(t, mech, shards))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := client.Estimate(ctx)
	if err != nil {
		t.Fatalf("estimate with an empty member down should serve: %v", err)
	}
	if !reflect.DeepEqual(got.Mass, want.Mass) {
		t.Fatal("estimate with an empty member down differs from the union decode")
	}
}

// abortOnce processes the first POST for real but kills the connection
// before any response bytes leave — the lost-ack failure mode a
// supervisor must NOT fail over on (the shard may have merged).
type abortOnce struct {
	mu      sync.Mutex
	aborted bool
	next    http.Handler
}

func (a *abortOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	abort := r.Method == http.MethodPost && !a.aborted
	if abort {
		a.aborted = true
	}
	a.mu.Unlock()
	if abort {
		rec := httptest.NewRecorder()
		a.next.ServeHTTP(rec, r)
		panic(http.ErrAbortHandler)
	}
	a.next.ServeHTTP(w, r)
}

// TestFleetLostAckStickyExactlyOnce drives the double-merge hazard: a
// member merges a shard but its ack is lost. The supervisor must not
// fail the shard over to another member — it pins the submission ID to
// the suspect member and answers 503; the client's retry (same ID)
// routes back, the member's idempotency log replays the ack, and the
// fleet estimate still counts the shard exactly once.
func TestFleetLostAckStickyExactlyOnce(t *testing.T) {
	mech := newDAM(t, 5, 1.8)
	pipeline := damPipeline(mech, 5, 1.8)
	shards := accumulateShards(t, mech, 2, 37)

	urls := make([]string, 2)
	for i := range urls {
		c, err := collector.New(collector.Config{Build: damBuild(t)})
		if err != nil {
			t.Fatal(err)
		}
		var h http.Handler = c
		if i == 0 {
			h = &abortOnce{next: c}
		}
		srv := httptest.NewServer(h)
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
	t.Cleanup(supSrv.Close)
	ctx := context.Background()

	// Route shard 0 so it lands on the aborting member 0 (round-robin
	// starts there), with client retries driving the recovery loop.
	client := collector.NewClient(supSrv.URL)
	client.MaxRetries = 3
	client.RetryBackoff = time.Millisecond
	resp, err := client.SubmitAggregate(ctx, shards[0], nil)
	if err != nil {
		t.Fatalf("lost-ack submission should recover via the sticky retry: %v", err)
	}
	if resp.Member != urls[0] {
		t.Fatalf("recovered ack came from %s; the submission must stay pinned to %s", resp.Member, urls[0])
	}
	if !resp.Duplicate {
		t.Fatal("recovered ack should be marked duplicate (the aborted attempt merged)")
	}
	if _, err := client.SubmitAggregate(ctx, shards[1], nil); err != nil {
		t.Fatal(err)
	}

	want, err := mech.EstimateFromAggregate(mergeAll(t, mech, shards))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := client.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Mass, want.Mass) {
		t.Fatal("lost-ack recovery double-merged: fleet estimate differs from the single-merge union")
	}
	stats := fetchFleetStats(t, supSrv.URL, "")
	if stats.Routed != 2 || stats.DuplicateShards != 1 {
		t.Fatalf("lost-ack recovery miscounted: routed %d, duplicates %d", stats.Routed, stats.DuplicateShards)
	}
}

// TestFleetStackedSupervisorsUnknownState stacks a supervisor on a
// supervisor and drives the lost-ack case through both tiers: the
// bottom collector merges a shard but its ack dies, the lower
// supervisor answers 503 marked unknown-state, and the UPPER supervisor
// must honour that mark — pinning the lower tier instead of failing the
// shard over to its other member, which would double-merge. The
// client's same-ID retry then recovers the ack through both idempotency
// logs and the fleet estimate counts the shard exactly once.
func TestFleetStackedSupervisorsUnknownState(t *testing.T) {
	mech := newDAM(t, 5, 1.8)
	pipeline := damPipeline(mech, 5, 1.8)
	shards := accumulateShards(t, mech, 1, 53)

	// Bottom collector C1 loses its first ack after merging.
	c1, err := collector.New(collector.Config{Build: damBuild(t)})
	if err != nil {
		t.Fatal(err)
	}
	c1Srv := httptest.NewServer(&abortOnce{next: c1})
	t.Cleanup(c1Srv.Close)
	// Lower supervisor S1 fronts only C1.
	s1, err := fleet.New(fleet.Config{
		Members: []string{c1Srv.URL}, Mechanism: newDAM(t, 5, 1.8), Pipeline: pipeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	s1Srv := httptest.NewServer(s1)
	t.Cleanup(s1Srv.Close)
	// A sibling collector C2 the upper tier must NOT fail over to.
	c2, err := collector.New(collector.Config{Build: damBuild(t)})
	if err != nil {
		t.Fatal(err)
	}
	c2Srv := httptest.NewServer(c2)
	t.Cleanup(c2Srv.Close)
	// Upper supervisor S0 fronts S1 (preferred first by round-robin)
	// and C2.
	s0, err := fleet.New(fleet.Config{
		Members: []string{s1Srv.URL, c2Srv.URL}, Mechanism: newDAM(t, 5, 1.8), Pipeline: pipeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	s0Srv := httptest.NewServer(s0)
	t.Cleanup(s0Srv.Close)
	ctx := context.Background()

	client := collector.NewClient(s0Srv.URL)
	client.MaxRetries = 3
	client.RetryBackoff = time.Millisecond
	resp, err := client.SubmitAggregate(ctx, shards[0], nil)
	if err != nil {
		t.Fatalf("stacked lost-ack submission should recover: %v", err)
	}
	if resp.Member != s1Srv.URL {
		t.Fatalf("recovered ack came via %s; must stay pinned to the lower supervisor %s (failover would double-merge)", resp.Member, s1Srv.URL)
	}
	want, err := mech.EstimateFromAggregate(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	got, meta, err := client.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Reports != shards[0].N {
		t.Fatalf("fleet holds %g reports, want %g (exactly one merge)", meta.Reports, shards[0].N)
	}
	if !reflect.DeepEqual(got.Mass, want.Mass) {
		t.Fatal("stacked recovery double-merged: estimate differs from the single-shard decode")
	}
}

// TestFleetFailoverOnMemberLocalRefusal checks that a member refusing
// for member-local reasons — here a misconfigured auth token answering
// 401 — does not fail the submission fleet-wide: the supervisor fails
// over to a member that accepts.
func TestFleetFailoverOnMemberLocalRefusal(t *testing.T) {
	mech := newDAM(t, 5, 1.5)
	pipeline := damPipeline(mech, 5, 1.5)
	shards := accumulateShards(t, mech, 2, 43)

	urls := make([]string, 2)
	for i := range urls {
		cfg := collector.Config{Build: damBuild(t)}
		if i == 0 {
			// Member 0 demands a token the supervisor doesn't present.
			cfg.AuthToken = "rotated-out-of-band"
		}
		c, err := collector.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(c)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	sup, err := fleet.New(fleet.Config{
		Members: urls, Mechanism: mech, Pipeline: pipeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	supSrv := httptest.NewServer(sup)
	t.Cleanup(supSrv.Close)
	client := collector.NewClient(supSrv.URL)
	ctx := context.Background()

	for _, s := range shards {
		resp, err := client.SubmitAggregate(ctx, s, nil)
		if err != nil {
			t.Fatalf("401 from one member should fail over, not fail the fleet: %v", err)
		}
		if resp.Member != urls[1] {
			t.Fatalf("submission landed on %s, want the accepting member %s", resp.Member, urls[1])
		}
	}
	stats := fetchFleetStats(t, supSrv.URL, "")
	for _, m := range stats.Members {
		if m.URL == urls[0] && m.Healthy {
			t.Fatal("refusing member should be marked unhealthy")
		}
	}
}

// swapHandler lets a test replace a member's backing collector in
// place, simulating a process restart behind a stable URL.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

func (s *swapHandler) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// TestFleetRefusesRestartedEmptyMember restarts a pre-built member
// after it absorbed shards: the fresh process answers GET /v1/aggregate
// with 200 and an empty aggregate, and the estimate must refuse — the
// member was positively seen holding reports, so an empty answer means
// the data is gone, not that there was none.
func TestFleetRefusesRestartedEmptyMember(t *testing.T) {
	mech := newDAM(t, 5, 1.8)
	pipeline := damPipeline(mech, 5, 1.8)
	shards := accumulateShards(t, mech, 1, 47)

	build := func() http.Handler {
		c, err := collector.New(collector.Config{Mechanism: newDAM(t, 5, 1.8), Pipeline: pipeline})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	front := &swapHandler{h: build()}
	srv := httptest.NewServer(front)
	t.Cleanup(srv.Close)
	sup, err := fleet.New(fleet.Config{
		Members: []string{srv.URL}, Mechanism: mech, Pipeline: pipeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	supSrv := httptest.NewServer(sup)
	t.Cleanup(supSrv.Close)
	client := collector.NewClient(supSrv.URL)
	ctx := context.Background()

	if _, err := client.SubmitAggregate(ctx, shards[0], nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Estimate(ctx); err != nil {
		t.Fatal(err)
	}
	// "Restart" the member: same URL, fresh empty state.
	front.swap(build())
	if _, _, err := client.Estimate(ctx); err == nil {
		t.Fatal("estimate after a member lost its shards should refuse, not serve a partial union")
	}
}

// TestFleetSharedSecretAuth runs members and supervisor with the same
// --auth-token: unauthenticated requests bounce at the supervisor AND
// at the members, /healthz stays open, and the authenticated loop —
// supervisor forwarding the shared secret downstream — works end to
// end.
func TestFleetSharedSecretAuth(t *testing.T) {
	const token = "fleet-s3cret"
	mech := newDAM(t, 5, 1.5)
	pipeline := damPipeline(mech, 5, 1.5)
	shards := accumulateShards(t, mech, 2, 13)

	urls := make([]string, 2)
	for i := range urls {
		c, err := collector.New(collector.Config{Build: damBuild(t), AuthToken: token})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(c)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	sup, err := fleet.New(fleet.Config{
		Members: urls, Mechanism: mech, Pipeline: pipeline, AuthToken: token,
	})
	if err != nil {
		t.Fatal(err)
	}
	supSrv := httptest.NewServer(sup)
	t.Cleanup(supSrv.Close)
	ctx := context.Background()

	// No token: 401 at the supervisor and at a member; /healthz open.
	bare := collector.NewClient(supSrv.URL)
	if _, err := bare.SubmitAggregate(ctx, shards[0], nil); err == nil {
		t.Fatal("tokenless submission should be refused")
	} else {
		var se *collector.StatusError
		if !errors.As(err, &se) || se.StatusCode != http.StatusUnauthorized {
			t.Fatalf("tokenless submission got %v, want 401", err)
		}
	}
	if err := bare.Health(ctx); err != nil {
		t.Fatalf("healthz should not require the token: %v", err)
	}
	bareMember := collector.NewClient(urls[0])
	if _, err := bareMember.Stats(ctx); err == nil {
		t.Fatal("tokenless member stats should be refused")
	}
	// Wrong token: also 401.
	wrong := collector.NewClient(supSrv.URL)
	wrong.AuthToken = "not-the-secret"
	if _, err := wrong.Stats(ctx); err == nil {
		t.Fatal("wrong-token request should be refused")
	}

	// The shared secret unlocks the whole loop.
	authed := collector.NewClient(supSrv.URL)
	authed.AuthToken = token
	for _, s := range shards {
		if _, err := authed.SubmitAggregate(ctx, s, nil); err != nil {
			t.Fatal(err)
		}
	}
	want, err := mech.EstimateFromAggregate(mergeAll(t, mech, shards))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := authed.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Mass, want.Mass) {
		t.Fatal("authenticated fleet estimate differs from the in-process union decode")
	}
}

// TestFleetWarmRefreshStats checks the second fleet decode warm-starts
// from the first and that /v1/stats accumulates the iteration saving
// and the per-member routing counters.
func TestFleetWarmRefreshStats(t *testing.T) {
	mech := newDAM(t, 4, 3.5)
	pipeline := damPipeline(mech, 4, 3.5)
	shards := accumulateShards(t, mech, 2, 5)
	f := startFleet(t, 2, mech, pipeline)
	ctx := context.Background()

	if _, err := f.client.SubmitAggregate(ctx, shards[0], nil); err != nil {
		t.Fatal(err)
	}
	_, meta1, err := f.client.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if meta1.Warm {
		t.Fatal("first fleet decode should be cold")
	}
	if _, err := f.client.SubmitAggregate(ctx, shards[1], nil); err != nil {
		t.Fatal(err)
	}
	_, meta2, err := f.client.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !meta2.Warm {
		t.Fatal("post-merge fleet decode should warm-start")
	}
	stats, err := f.client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reports != shards[0].N+shards[1].N {
		t.Fatalf("fleet absorbed %g reports, want %g", stats.Reports, shards[0].N+shards[1].N)
	}
	if stats.Generation != 2 {
		t.Fatalf("fleet routed %d submissions, want 2", stats.Generation)
	}
}

// fetchFleetStats decodes the supervisor's stats envelope with the
// fleet-specific fields (per-member health, failovers) the generic
// collector client doesn't carry, presenting token when it is
// non-empty.
func fetchFleetStats(t *testing.T, baseURL, token string) *fleet.Stats {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, baseURL+"/v1/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet stats returned HTTP %d", resp.StatusCode)
	}
	var stats fleet.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return &stats
}

// TestFleetMemberRestartsWarmFromDataDir is the durability counterpart
// of TestFleetRefusesRestartedEmptyMember: the member runs over a
// durable data directory, dies hard (no snapshot flush), and restarts
// behind the same URL with the same directory. While it is down the
// fleet estimate answers 503; once it rejoins warm, the estimate
// transitions back to 200 with the byte-identical union — no
// re-submission needed — and the supervisor's stats report the rejoin
// and relay the member's durability counters.
func TestFleetMemberRestartsWarmFromDataDir(t *testing.T) {
	mech := newDAM(t, 5, 1.8)
	pipeline := damPipeline(mech, 5, 1.8)
	shards := accumulateShards(t, mech, 2, 61)
	dir := t.TempDir()

	openMember := func() (http.Handler, *durable.Store) {
		t.Helper()
		st, err := durable.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		c, err := collector.New(collector.Config{Build: damBuild(t), Store: st})
		if err != nil {
			t.Fatal(err)
		}
		return c, st
	}
	h1, st1 := openMember()
	front := &swapHandler{h: h1}
	srv := httptest.NewServer(front)
	t.Cleanup(srv.Close)
	sup, err := fleet.New(fleet.Config{
		Members: []string{srv.URL}, Mechanism: mech, Pipeline: pipeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	supSrv := httptest.NewServer(sup)
	t.Cleanup(supSrv.Close)
	client := collector.NewClient(supSrv.URL)
	ctx := context.Background()

	for _, s := range shards {
		if _, err := client.SubmitAggregate(ctx, s, nil); err != nil {
			t.Fatal(err)
		}
	}
	_, want, err := client.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// kill -9: the member vanishes mid-flight, WAL unflushed to any
	// snapshot. The estimate must refuse rather than serve a partial
	// union.
	st1.Close()
	front.swap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "connection refused (member down)", http.StatusServiceUnavailable)
	}))
	if _, _, err := client.Estimate(ctx); err == nil {
		t.Fatal("estimate with the only data-holding member down must refuse")
	} else {
		var se *collector.StatusError
		if !errors.As(err, &se) || se.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("down-member estimate got %v, want 503", err)
		}
	}

	// Warm restart: same URL, same data directory. The WAL replay
	// restores the merged shards, so the next fleet pull revives the
	// member and the estimate is 200 again — byte-identical.
	h2, st2 := openMember()
	t.Cleanup(func() { st2.Close() })
	front.swap(h2)
	_, got, err := client.Estimate(ctx)
	if err != nil {
		t.Fatalf("estimate after warm member restart: %v", err)
	}
	if got.Reports != want.Reports || !reflect.DeepEqual(got.Mass, want.Mass) {
		t.Fatal("fleet estimate diverged across the member's crash-restart")
	}

	stats := fetchFleetStats(t, supSrv.URL, "")
	if len(stats.Members) != 1 {
		t.Fatalf("fleet stats list %d members", len(stats.Members))
	}
	m := stats.Members[0]
	if !m.Healthy || m.Recoveries == 0 {
		t.Fatalf("member rejoin not reflected in stats: %+v", m)
	}
	if m.Durability == nil || m.Durability.RecordsReplayed == 0 {
		t.Fatalf("member durability counters not relayed: %+v", m.Durability)
	}
	if m.Reports != want.Reports {
		t.Fatalf("member reports %g after recovery, want %g", m.Reports, want.Reports)
	}
}
