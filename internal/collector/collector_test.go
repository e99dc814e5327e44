package collector_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dpspatial/internal/collector"
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

// startServer runs a collector pre-built around mech, pinned to
// pipeline, under an httptest server and returns a client for it.
func startServer(t *testing.T, mech collector.Estimator, pipeline *collector.Pipeline, cadence time.Duration) (*collector.Client, *collector.Collector) {
	t.Helper()
	c, err := collector.New(collector.Config{Mechanism: mech, Pipeline: pipeline, Cadence: cadence})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	srv := httptest.NewServer(c)
	t.Cleanup(func() { srv.Close(); c.Close() })
	return collector.NewClient(srv.URL), c
}

// accumulateShards streams n reports per cell of a synthetic truth
// histogram through the mechanism's client layer, round-robin over the
// requested number of shard aggregates, on a single RNG stream.
func accumulateShards(t *testing.T, mech *sam.Mechanism, shards int, seed uint64) []*fo.Aggregate {
	t.Helper()
	out := make([]*fo.Aggregate, shards)
	for s := range out {
		out[s] = mech.NewAggregate()
	}
	r := rng.New(seed)
	user := 0
	for i := 0; i < mech.NumInputs(); i++ {
		for k := 0; k < 5+(i*7)%23; k++ {
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

// mustJSONLine renders a pipeline as a reports-stream header line.
func mustJSONLine(t *testing.T, p *collector.Pipeline) string {
	t.Helper()
	hdr := *p
	hdr.Format = collector.ReportsFormat
	b, err := json.Marshal(&hdr)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
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

// TestEstimateMatchesInProcessByteIdentical is the acceptance check:
// shards submitted over HTTP decode to exactly the histogram
// EstimateFromAggregate produces on the same shards in process. The
// collector's first decode is a cold start, so this holds bit-for-bit.
func TestEstimateMatchesInProcessByteIdentical(t *testing.T) {
	mech := newDAM(t, 6, 1.5)
	shards := accumulateShards(t, mech, 2, 11)
	want, err := mech.EstimateFromAggregate(mergeAll(t, mech, shards))
	if err != nil {
		t.Fatal(err)
	}

	client, _ := startServer(t, mech, durPipeline(mech, 6, 1.5), 0)
	ctx := context.Background()
	for i, s := range shards {
		resp, err := client.SubmitAggregate(ctx, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Generation != uint64(i+1) {
			t.Fatalf("submission %d acknowledged generation %d", i, resp.Generation)
		}
	}
	got, meta, err := client.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Warm {
		t.Fatal("first decode should be a cold start")
	}
	if got.Dom != want.Dom {
		t.Fatalf("domain mismatch: %+v vs %+v", got.Dom, want.Dom)
	}
	if !reflect.DeepEqual(got.Mass, want.Mass) {
		t.Fatal("HTTP estimate is not byte-identical to the in-process EstimateFromAggregate")
	}
}

// TestConcurrentAggregateMergesByteIdentity submits shards from
// concurrent goroutines and checks the merged canonical aggregate is
// byte-identical to a serial merge, regardless of arrival interleaving.
func TestConcurrentAggregateMergesByteIdentity(t *testing.T) {
	mech := newDAM(t, 5, 2.0)
	shards := accumulateShards(t, mech, 8, 23)
	wantBlob, err := mergeAll(t, mech, shards).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 3; trial++ {
		client, _ := startServer(t, newDAM(t, 5, 2.0), durPipeline(mech, 5, 2.0), 0)
		ctx := context.Background()
		var wg sync.WaitGroup
		errs := make(chan error, len(shards))
		for i := range shards {
			wg.Add(1)
			go func(shard *fo.Aggregate) {
				defer wg.Done()
				if _, err := client.SubmitAggregate(ctx, shard, nil); err != nil {
					errs <- err
				}
			}(shards[(i+trial*3)%len(shards)])
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		merged, err := client.FetchAggregate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		gotBlob, err := merged.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBlob, wantBlob) {
			t.Fatalf("trial %d: concurrently merged aggregate differs from the serial merge", trial)
		}
	}
}

// TestConcurrentAdoption races first submissions, each carrying the
// pipeline, against reads of an adopt-mode collector: every shard
// merges under the one adopted mechanism, every read answers or refuses
// with a 409, and the merged aggregate equals the serial merge.
func TestConcurrentAdoption(t *testing.T) {
	mech := newDAM(t, 5, 2.0)
	pipeline := durPipeline(mech, 5, 2.0)
	shards := accumulateShards(t, mech, 6, 29)
	wantBlob, err := mergeAll(t, mech, shards).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	c, err := collector.New(collector.Config{Build: durBuild(t)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c)
	t.Cleanup(srv.Close)
	client := collector.NewClient(srv.URL)
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, len(shards)+4)
	for _, shard := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.SubmitAggregate(ctx, shard, pipeline); err != nil {
				errs <- err
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				var se *collector.StatusError
				if _, _, err := client.Estimate(ctx); err != nil && (!errors.As(err, &se) || se.StatusCode != http.StatusConflict) {
					errs <- err
					return
				}
				if err := client.Health(ctx); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	merged, err := client.FetchAggregate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gotBlob, err := merged.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBlob, wantBlob) {
		t.Fatal("concurrently adopted aggregate differs from the serial merge")
	}
}

// TestWarmRestartStats checks that the second decode warm-starts from
// the first estimate and that /v1/stats surfaces the iteration saving.
func TestWarmRestartStats(t *testing.T) {
	mech := newDAM(t, 4, 3.5)
	shards := accumulateShards(t, mech, 2, 7)

	client, _ := startServer(t, mech, durPipeline(mech, 4, 3.5), 0)
	ctx := context.Background()
	if _, err := client.SubmitAggregate(ctx, shards[0], nil); err != nil {
		t.Fatal(err)
	}
	_, meta1, err := client.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if meta1.Warm {
		t.Fatal("first decode should be cold")
	}
	if _, err := client.SubmitAggregate(ctx, shards[1], nil); err != nil {
		t.Fatal(err)
	}
	_, meta2, err := client.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !meta2.Warm {
		t.Fatal("post-merge decode should warm-start from the previous estimate")
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Estimates != 2 || stats.WarmEstimates != 1 {
		t.Fatalf("stats counted %d decodes / %d warm", stats.Estimates, stats.WarmEstimates)
	}
	if stats.ColdBaselineIterations == 0 {
		t.Fatal("cold baseline iterations not recorded")
	}
	if meta2.Iterations >= stats.ColdBaselineIterations {
		t.Fatalf("warm decode took %d iterations, cold baseline %d",
			meta2.Iterations, stats.ColdBaselineIterations)
	}
	if stats.IterationsSaved == 0 {
		t.Fatal("warm restart saved no iterations according to /v1/stats")
	}
	if stats.EstimateGeneration != 2 || stats.Generation != 2 {
		t.Fatalf("stats generations: estimate %d, aggregate %d", stats.EstimateGeneration, stats.Generation)
	}
}

// TestAdoptMechanismFromReportStream starts a collector with only a
// Build hook and checks it adopts the mechanism from the first report
// shard's pipeline header, rejects mismatched later submissions, and
// then estimates exactly like the in-process lifecycle.
func TestAdoptMechanismFromReportStream(t *testing.T) {
	c, err := collector.New(collector.Config{
		Build: func(p *collector.Pipeline) (collector.Estimator, error) {
			dom, err := p.GridDomain()
			if err != nil {
				return nil, err
			}
			if p.Mech != "DAM" {
				return nil, fmt.Errorf("test builder only builds DAM, not %q", p.Mech)
			}
			return sam.NewDAM(dom, p.Eps)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c)
	defer srv.Close()
	client := collector.NewClient(srv.URL)
	ctx := context.Background()

	mech := newDAM(t, 5, 1.5)
	pipeline := &collector.Pipeline{
		Mech: "DAM", D: 5, Eps: 1.5,
		Scheme: mech.Scheme(), Shape: mech.ReportShape(),
		Domain: collector.DomainSpec{MinX: 0, MinY: 0, Side: 1},
	}

	// Binary aggregates carry no pipeline metadata, so before adoption
	// they must be rejected.
	shards := accumulateShards(t, mech, 2, 3)
	if _, err := client.SubmitAggregate(ctx, shards[0], nil); err == nil {
		t.Fatal("headerless submission before adoption should fail")
	}

	// A rejected submission must not lock the collector: a valid header
	// paired with a blob of a different scheme builds the candidate
	// mechanism but the shard fails validation — adoption must roll
	// back, not pin the collector to the candidate.
	foreign := newDAM(t, 6, 2.0)
	if _, err := client.SubmitAggregate(ctx, foreign.NewAggregate(), pipeline); err == nil {
		t.Fatal("mismatched blob should be rejected")
	}
	// Likewise a well-formed header followed by a garbage report line.
	garbage := strings.NewReader(mustJSONLine(t, pipeline) + "not json\n")
	if _, err := client.SubmitReportStream(ctx, garbage); err == nil {
		t.Fatal("malformed report stream should be rejected")
	}
	if stats, err := client.Stats(ctx); err != nil || stats.Scheme != "" {
		t.Fatalf("rejected submissions locked the collector (scheme %q, err %v)", stats.Scheme, err)
	}

	// A report stream with a header adopts the mechanism.
	var reports []fo.Report
	r := rng.New(99)
	for i := 0; i < mech.NumInputs(); i++ {
		rep, err := mech.Report(i, r)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	resp, err := client.SubmitReports(ctx, pipeline, reports)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Scheme != mech.Scheme() || resp.Reports != float64(len(reports)) {
		t.Fatalf("unexpected ack: %+v", resp)
	}

	// Mismatched pipelines are refused once locked.
	other := *pipeline
	other.Eps = 2.5
	other.Scheme = "sam/DAM d=5 eps=2.5 bhat=1"
	if _, err := client.SubmitReports(ctx, &other, reports[:1]); err == nil {
		t.Fatal("mismatched scheme should be refused after adoption")
	}

	// The adopted estimator decodes exactly like the in-process one.
	inproc := mech.NewAggregate()
	for _, rep := range reports {
		if err := inproc.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	want, err := mech.EstimateFromAggregate(inproc)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := client.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Mass, want.Mass) {
		t.Fatal("adopted collector's estimate differs from the in-process decode")
	}
}

// TestPipelinePinRefusesForeignDomain checks that a collector pinned to
// its pipeline refuses a same-scheme shard collected over a different
// geographic domain — which the scheme string alone cannot detect —
// instead of merging it silently.
func TestPipelinePinRefusesForeignDomain(t *testing.T) {
	mech := newDAM(t, 5, 1.5)
	pipeline := durPipeline(mech, 5, 1.5)
	client, _ := startServer(t, mech, pipeline, 0)
	ctx := context.Background()
	shards := accumulateShards(t, mech, 2, 41)

	if _, err := client.SubmitAggregate(ctx, shards[0], pipeline); err != nil {
		t.Fatal(err)
	}
	// Same scheme, different region: must be refused.
	foreign := *pipeline
	foreign.Domain = collector.DomainSpec{MinX: 40.7, MinY: -74.0, Side: 0.2}
	if _, err := client.SubmitAggregate(ctx, shards[1], &foreign); err == nil {
		t.Fatal("same-scheme shard from a different domain should be refused")
	}
	// The matching domain still merges.
	if _, err := client.SubmitAggregate(ctx, shards[1], pipeline); err != nil {
		t.Fatal(err)
	}
}

// TestCadenceLoopRefreshes checks the background daemon loop re-decodes
// merged submissions without any GET /v1/estimate driving it.
func TestCadenceLoopRefreshes(t *testing.T) {
	mech := newDAM(t, 4, 3.5)
	shards := accumulateShards(t, mech, 2, 5)
	client, _ := startServer(t, mech, durPipeline(mech, 4, 3.5), 10*time.Millisecond)
	ctx := context.Background()

	waitForEstimateGen := func(gen uint64) *collector.Stats {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			stats, err := client.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if stats.EstimateGeneration >= gen {
				return stats
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("cadence loop never refreshed to generation %d", gen)
		return nil
	}

	if _, err := client.SubmitAggregate(ctx, shards[0], nil); err != nil {
		t.Fatal(err)
	}
	waitForEstimateGen(1)
	if _, err := client.SubmitAggregate(ctx, shards[1], nil); err != nil {
		t.Fatal(err)
	}
	stats := waitForEstimateGen(2)
	if stats.WarmEstimates == 0 {
		t.Fatal("cadence refresh after a merge should have warm-started")
	}
}

// TestAuthToken locks a collector behind --auth-token semantics: every
// endpoint except /healthz refuses tokenless and wrong-token requests,
// and the matching bearer token unlocks the full lifecycle.
func TestAuthToken(t *testing.T) {
	mech := newDAM(t, 4, 2.0)
	c, err := collector.New(collector.Config{Mechanism: mech, Pipeline: durPipeline(mech, 4, 2.0), AuthToken: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c)
	defer srv.Close()
	ctx := context.Background()
	shards := accumulateShards(t, mech, 1, 3)

	bare := collector.NewClient(srv.URL)
	if err := bare.Health(ctx); err != nil {
		t.Fatalf("healthz should stay open: %v", err)
	}
	if _, err := bare.SubmitAggregate(ctx, shards[0], nil); err == nil {
		t.Fatal("tokenless submission should be refused")
	} else {
		var se *collector.StatusError
		if !errors.As(err, &se) || se.StatusCode != http.StatusUnauthorized {
			t.Fatalf("tokenless submission got %v, want 401", err)
		}
	}
	wrong := collector.NewClient(srv.URL)
	wrong.AuthToken = "not-it"
	if _, err := wrong.Stats(ctx); err == nil {
		t.Fatal("wrong token should be refused")
	}

	authed := collector.NewClient(srv.URL)
	authed.AuthToken = "s3cret"
	if _, err := authed.SubmitAggregate(ctx, shards[0], nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := authed.Estimate(ctx); err != nil {
		t.Fatal(err)
	}
}

// flakyFront fails the first n requests with 503 before passing through
// to the wrapped collector.
type flakyFront struct {
	mu        sync.Mutex
	failFirst int
	requests  int
	next      http.Handler
}

func (f *flakyFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.requests++
	fail := f.requests <= f.failFirst
	f.mu.Unlock()
	if fail {
		http.Error(w, `{"error":"briefly unhealthy"}`, http.StatusServiceUnavailable)
		return
	}
	f.next.ServeHTTP(w, r)
}

// TestClientRetriesTransientFailures checks the bounded-retry client: a
// submission that hits transient 5xx answers is replayed (with the
// exact same bytes — the merge happens once) until the member recovers,
// while 4xx refusals and retry-disabled clients fail immediately.
func TestClientRetriesTransientFailures(t *testing.T) {
	mech := newDAM(t, 4, 2.0)
	c, err := collector.New(collector.Config{Mechanism: mech, Pipeline: durPipeline(mech, 4, 2.0)})
	if err != nil {
		t.Fatal(err)
	}
	front := &flakyFront{failFirst: 2, next: c}
	srv := httptest.NewServer(front)
	defer srv.Close()
	ctx := context.Background()
	shards := accumulateShards(t, mech, 2, 9)

	// No retries: the first 503 is fatal.
	plain := collector.NewClient(srv.URL)
	if _, err := plain.SubmitAggregate(ctx, shards[0], nil); err == nil {
		t.Fatal("retry-disabled client should surface the 503")
	}

	// Retries enabled: two failures are absorbed, the shard merges once.
	retrying := collector.NewClient(srv.URL)
	retrying.MaxRetries = 3
	retrying.RetryBackoff = time.Millisecond
	front.mu.Lock()
	front.requests, front.failFirst = 0, 2
	front.mu.Unlock()
	resp, err := retrying.SubmitAggregate(ctx, shards[0], nil)
	if err != nil {
		t.Fatalf("retrying client should absorb transient 503s: %v", err)
	}
	if resp.TotalReports != shards[0].N {
		t.Fatalf("shard merged %g reports total, want %g (exactly once)", resp.TotalReports, shards[0].N)
	}
	front.mu.Lock()
	requests := front.requests
	front.mu.Unlock()
	if requests != 3 {
		t.Fatalf("expected 3 attempts (2 failures + success), saw %d", requests)
	}

	// A 4xx refusal (foreign scheme) must not retry.
	foreign := newDAM(t, 6, 1.0)
	front.mu.Lock()
	front.requests, front.failFirst = 0, 0
	front.mu.Unlock()
	if _, err := retrying.SubmitAggregate(ctx, foreign.NewAggregate(), nil); err == nil {
		t.Fatal("foreign-scheme shard should be refused")
	}
	front.mu.Lock()
	requests = front.requests
	front.mu.Unlock()
	if requests != 1 {
		t.Fatalf("4xx refusal should not retry, saw %d attempts", requests)
	}
}

// TestSubmissionIDExactlyOnce replays a submission under its original
// ID and checks the shard merges exactly once, with the original ack
// repeated and marked duplicate.
func TestSubmissionIDExactlyOnce(t *testing.T) {
	mech := newDAM(t, 4, 2.0)
	client, _ := startServer(t, mech, durPipeline(mech, 4, 2.0), 0)
	ctx := context.Background()
	shards := accumulateShards(t, mech, 1, 21)
	blob, err := shards[0].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	id := collector.NewSubmissionID()
	first, err := client.SubmitAggregateBlobWithID(ctx, blob, nil, id)
	if err != nil {
		t.Fatal(err)
	}
	if first.Duplicate {
		t.Fatal("first submission marked duplicate")
	}
	replay, err := client.SubmitAggregateBlobWithID(ctx, blob, nil, id)
	if err != nil {
		t.Fatal(err)
	}
	if !replay.Duplicate {
		t.Fatal("replayed ID not marked duplicate")
	}
	if replay.TotalReports != first.TotalReports || replay.Generation != first.Generation {
		t.Fatalf("replay ack %+v differs from original %+v", replay, first)
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Generation != 1 || stats.Reports != shards[0].N || stats.DuplicateShards != 1 {
		t.Fatalf("replay merged twice or was not counted: %+v", stats)
	}
}

// abortOnce processes the first POST for real but kills the connection
// before any response bytes leave — the lost-ack failure mode.
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

// TestClientRetryAfterLostAckMergesOnce covers the nastiest retry case:
// the server merges the shard but the response is lost mid-flight. The
// retry replays the same submission ID, so the idempotency log answers
// with the original ack and the shard counts exactly once.
func TestClientRetryAfterLostAckMergesOnce(t *testing.T) {
	mech := newDAM(t, 4, 2.0)
	c, err := collector.New(collector.Config{Mechanism: mech, Pipeline: durPipeline(mech, 4, 2.0)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(&abortOnce{next: c})
	defer srv.Close()
	ctx := context.Background()
	shards := accumulateShards(t, mech, 1, 27)

	client := collector.NewClient(srv.URL)
	client.MaxRetries = 3
	client.RetryBackoff = time.Millisecond
	resp, err := client.SubmitAggregate(ctx, shards[0], nil)
	if err != nil {
		t.Fatalf("retry after a lost ack should recover: %v", err)
	}
	if !resp.Duplicate {
		t.Fatal("recovered ack should be marked duplicate (the first attempt merged)")
	}
	if resp.TotalReports != shards[0].N {
		t.Fatalf("shard counted %g reports total, want %g (exactly once)", resp.TotalReports, shards[0].N)
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Generation != 1 || stats.Reports != shards[0].N {
		t.Fatalf("lost-ack retry merged twice: %+v", stats)
	}
}

// TestHealthzAndErrors covers the health endpoint and the error paths.
func TestHealthzAndErrors(t *testing.T) {
	mech := newDAM(t, 4, 2.0)
	client, _ := startServer(t, mech, durPipeline(mech, 4, 2.0), 0)
	ctx := context.Background()
	if err := client.Health(ctx); err != nil {
		t.Fatal(err)
	}
	// No reports yet: estimate must refuse rather than serve garbage.
	if _, _, err := client.Estimate(ctx); err == nil {
		t.Fatal("estimate before any submission should fail")
	}
	// Garbage blobs are rejected.
	if _, err := client.SubmitAggregateBlob(ctx, []byte("not an aggregate"), nil); err == nil {
		t.Fatal("garbage blob should be rejected")
	}
	// A shard from a different scheme is refused.
	foreign := newDAM(t, 4, 9.9)
	if _, err := client.SubmitAggregate(ctx, foreign.NewAggregate(), nil); err == nil {
		t.Fatal("foreign-scheme shard should be refused")
	}
	// Wrong methods 405.
	resp, err := http.Get(client.BaseURL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/report returned %d", resp.StatusCode)
	}
}
