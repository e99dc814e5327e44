package collector_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dpspatial/internal/collector"
)

// These tests pin the /metrics exposition to the behaviors the rest of
// the suite already proves: the counters must move exactly when the
// exactly-once, query-cache and durability tests say the underlying
// events happen — and a quiesced collector must scrape byte-identically,
// which is what makes the exposition diffable in CI artifacts.

// scrapeMetrics GETs /metrics and returns the exposition body.
func scrapeMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + collector.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// seriesValue extracts one series' value from an exposition body by its
// exact rendered name — "name" for unlabeled series, `name{label="v"}`
// for labeled ones. A missing series fails the test: every series these
// tests read is part of the stable name contract.
func seriesValue(t *testing.T, exposition, series string) float64 {
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

// seriesSum sums every series of a family regardless of labels, 0 when
// the family has no series yet.
func seriesSum(t *testing.T, exposition, family string) float64 {
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

// TestMetricsQuiescedScrapesByteIdentical exercises a collector through
// submissions, estimates and queries, then scrapes /metrics twice with
// no traffic in between: the two bodies must be byte-identical, because
// scraping is excluded from its own accounting and no exported series is
// time-derived.
func TestMetricsQuiescedScrapesByteIdentical(t *testing.T) {
	mech := newDAM(t, 5, 2.0)
	client, _ := startServer(t, mech, durPipeline(mech, 5, 2.0), 0)
	ctx := context.Background()
	for _, s := range accumulateShards(t, mech, 2, 41) {
		if _, err := client.SubmitAggregate(ctx, s, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := client.Estimate(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := client.QueryTopK(ctx, 3); err != nil {
		t.Fatal(err)
	}

	first := scrapeMetrics(t, client.BaseURL)
	second := scrapeMetrics(t, client.BaseURL)
	if first != second {
		t.Fatalf("two scrapes of a quiesced collector differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, "# TYPE dpspatial_submissions_total counter") {
		t.Fatal("exposition is missing the dpspatial_submissions_total TYPE header")
	}
}

// TestMetricsDuplicateReplayLockstep mirrors TestSubmissionIDExactlyOnce
// on the counter surface: a replayed submission ID must move the
// duplicate outcome by exactly one while accepted stays put — if the
// idempotency log ever double-merged, these series would say so.
func TestMetricsDuplicateReplayLockstep(t *testing.T) {
	mech := newDAM(t, 4, 2.0)
	client, _ := startServer(t, mech, durPipeline(mech, 4, 2.0), 0)
	ctx := context.Background()
	blob, err := accumulateShards(t, mech, 1, 21)[0].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	id := collector.NewSubmissionID()
	if _, err := client.SubmitAggregateBlobWithID(ctx, blob, nil, id); err != nil {
		t.Fatal(err)
	}
	exp := scrapeMetrics(t, client.BaseURL)
	if got := seriesValue(t, exp, `dpspatial_submissions_total{outcome="accepted"}`); got != 1 {
		t.Fatalf("accepted = %g after one submission, want 1", got)
	}
	if got := seriesSum(t, exp, "dpspatial_submissions_total"); got != 1 {
		t.Fatalf("total submission outcomes = %g, want 1", got)
	}

	replay, err := client.SubmitAggregateBlobWithID(ctx, blob, nil, id)
	if err != nil {
		t.Fatal(err)
	}
	if !replay.Duplicate {
		t.Fatal("replayed ID not marked duplicate")
	}
	exp = scrapeMetrics(t, client.BaseURL)
	if got := seriesValue(t, exp, `dpspatial_submissions_total{outcome="accepted"}`); got != 1 {
		t.Fatalf("accepted = %g after replay, want 1 (replay must not re-merge)", got)
	}
	if got := seriesValue(t, exp, `dpspatial_submissions_total{outcome="duplicate"}`); got != 1 {
		t.Fatalf("duplicate = %g after replay, want 1", got)
	}
	if got := seriesValue(t, exp, "dpspatial_generation"); got != 1 {
		t.Fatalf("generation gauge = %g, want 1", got)
	}
}

// TestMetricsQueryCacheLockstep pins the cache counters to the
// generation-keyed decode cache: repeated estimates at an unchanged
// generation are hits, and a new submission forces exactly one more
// miss — decoded warm, which the decode-mode series must show.
func TestMetricsQueryCacheLockstep(t *testing.T) {
	mech := newDAM(t, 5, 1.5)
	client, _ := startServer(t, mech, durPipeline(mech, 5, 1.5), 0)
	ctx := context.Background()
	shards := accumulateShards(t, mech, 2, 61)
	if _, err := client.SubmitAggregate(ctx, shards[0], nil); err != nil {
		t.Fatal(err)
	}

	if _, _, err := client.Estimate(ctx); err != nil {
		t.Fatal(err)
	}
	exp := scrapeMetrics(t, client.BaseURL)
	if got := seriesValue(t, exp, `dpspatial_query_cache_misses_total{kind="estimate"}`); got != 1 {
		t.Fatalf("estimate cache misses = %g after first decode, want 1", got)
	}
	if got := seriesValue(t, exp, `dpspatial_decodes_total{mode="cold"}`); got != 1 {
		t.Fatalf("cold decodes = %g, want 1", got)
	}

	for i := 0; i < 3; i++ {
		if _, _, err := client.Estimate(ctx); err != nil {
			t.Fatal(err)
		}
	}
	exp = scrapeMetrics(t, client.BaseURL)
	if got := seriesValue(t, exp, `dpspatial_query_cache_hits_total{kind="estimate"}`); got != 3 {
		t.Fatalf("estimate cache hits = %g after three re-fetches, want 3", got)
	}
	if got := seriesValue(t, exp, `dpspatial_query_cache_misses_total{kind="estimate"}`); got != 1 {
		t.Fatalf("estimate cache misses moved to %g on cached fetches, want 1", got)
	}

	if _, err := client.SubmitAggregate(ctx, shards[1], nil); err != nil {
		t.Fatal(err)
	}
	if _, meta, err := client.Estimate(ctx); err != nil {
		t.Fatal(err)
	} else if !meta.Warm {
		t.Fatal("re-decode after a merge should warm-start")
	}
	exp = scrapeMetrics(t, client.BaseURL)
	if got := seriesValue(t, exp, `dpspatial_query_cache_misses_total{kind="estimate"}`); got != 2 {
		t.Fatalf("estimate cache misses = %g after invalidating merge, want 2", got)
	}
	if got := seriesValue(t, exp, `dpspatial_decodes_total{mode="warm"}`); got != 1 {
		t.Fatalf("warm decodes = %g, want 1", got)
	}
	// /v1/estimate is not /v1/query; the query counters must not move.
	if got := seriesSum(t, exp, "dpspatial_queries_total"); got != 0 {
		t.Fatalf("served queries = %g without any /v1/query traffic, want 0", got)
	}
}

// TestMetricsRefusalCounters drives the refusal matrix: an incompatible
// shard must count as a refused submission under its HTTP status code,
// and a malformed query as a refused query under 400 — without ever
// touching the accepted or served counters.
func TestMetricsRefusalCounters(t *testing.T) {
	mech := newDAM(t, 4, 2.0)
	client, _ := startServer(t, mech, durPipeline(mech, 4, 2.0), 0)
	ctx := context.Background()

	foreign := newDAM(t, 7, 2.0) // different grid → incompatible scheme
	_, err := client.SubmitAggregate(ctx, foreign.NewAggregate(), nil)
	if err == nil {
		t.Fatal("foreign-scheme shard should be refused")
	}
	var se *collector.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("refusal is not a StatusError: %v", err)
	}

	resp, err := http.Get(client.BaseURL + "/v1/query?type=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus query type answered HTTP %d, want 400", resp.StatusCode)
	}

	exp := scrapeMetrics(t, client.BaseURL)
	if got := seriesValue(t, exp, `dpspatial_submissions_total{outcome="refused"}`); got != 1 {
		t.Fatalf("refused submissions = %g, want 1", got)
	}
	refusalSeries := `dpspatial_submission_refusals_total{code="` + strconv.Itoa(se.StatusCode) + `"}`
	if got := seriesValue(t, exp, refusalSeries); got != 1 {
		t.Fatalf("%s = %g, want 1", refusalSeries, got)
	}
	if got := seriesValue(t, exp, `dpspatial_query_refusals_total{code="400"}`); got != 1 {
		t.Fatalf("400 query refusals = %g, want 1", got)
	}
	if got := seriesSum(t, exp, "dpspatial_queries_total"); got != 0 {
		t.Fatalf("served queries = %g with only refused traffic, want 0", got)
	}
	if got := seriesValue(t, exp, `dpspatial_http_requests_total{path="/v1/query",code="400"}`); got != 1 {
		t.Fatalf("request counter for the refused query = %g, want 1", got)
	}
}

// TestMetricsDurableCounters checks a durable collector surfaces the
// store's WAL accounting — fsyncs and appended records move with
// submissions — and that a restart of the same data directory exposes
// the recovery's replayed-record count and still answers a replayed
// submission ID as a duplicate on the counter surface.
func TestMetricsDurableCounters(t *testing.T) {
	const d, eps = 5, 2.0
	mech := newDAM(t, d, eps)
	dir := t.TempDir()
	client, _, st := startDurable(t, dir, collector.Config{
		Mechanism: mech, Pipeline: durPipeline(mech, d, eps), SnapshotEvery: -1,
	})
	ctx := context.Background()
	shards := accumulateShards(t, mech, 3, 77)
	blobs, ids := marshalShards(t, shards, "metrics")
	for i := range blobs {
		if _, err := client.SubmitAggregateBlobWithID(ctx, blobs[i], nil, ids[i]); err != nil {
			t.Fatal(err)
		}
	}

	exp := scrapeMetrics(t, client.BaseURL)
	if got := seriesValue(t, exp, "dpspatial_durable_wal_records_appended_total"); got < 3 {
		t.Fatalf("WAL records appended = %g after 3 submissions, want >= 3", got)
	}
	if got := seriesValue(t, exp, "dpspatial_durable_wal_fsyncs_total"); got < 3 {
		t.Fatalf("WAL fsyncs = %g after 3 synced submissions, want >= 3", got)
	}
	if got := seriesValue(t, exp, "dpspatial_durable_wal_bytes_written_total"); got <= 0 {
		t.Fatalf("WAL bytes written = %g, want > 0", got)
	}
	st.Close() // crash: no snapshot, no collector Close

	// Reopen the same directory: recovery replays the WAL, and the
	// restarted process's exposition must say how much it replayed.
	client2, _, _ := startDurable(t, dir, collector.Config{Build: durBuild(t), SnapshotEvery: -1})
	exp = scrapeMetrics(t, client2.BaseURL)
	if got := seriesValue(t, exp, "dpspatial_durable_wal_records_replayed"); got < 3 {
		t.Fatalf("records replayed on recovery = %g, want >= 3", got)
	}
	if got := seriesValue(t, exp, "dpspatial_reports"); got <= 0 {
		t.Fatalf("recovered collector reports gauge = %g, want > 0", got)
	}
	if _, err := client2.SubmitAggregateBlobWithID(ctx, blobs[0], nil, ids[0]); err != nil {
		t.Fatal(err)
	}
	exp = scrapeMetrics(t, client2.BaseURL)
	if got := seriesValue(t, exp, `dpspatial_submissions_total{outcome="duplicate"}`); got != 1 {
		t.Fatalf("cross-restart replay duplicate = %g, want 1", got)
	}
}

// TestMetricsConcurrentTraffic floods a collector with parallel
// submissions, estimate fetches and scrapes while a fast background
// cadence keeps decoding (run with -race in CI): no lost updates — the
// accepted counter must equal the number of successful submissions.
func TestMetricsConcurrentTraffic(t *testing.T) {
	mech := newDAM(t, 4, 2.0)
	client, _ := startServer(t, mech, durPipeline(mech, 4, 2.0), time.Millisecond)
	ctx := context.Background()
	shards := accumulateShards(t, mech, 8, 91)
	// Merge one shard up front so concurrent estimates never race an
	// empty collector into a 409.
	if _, err := client.SubmitAggregate(ctx, shards[0], nil); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(shards)+8)
	for _, s := range shards[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.SubmitAggregate(ctx, s, nil); err != nil {
				errs <- err
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := http.Get(client.BaseURL + collector.MetricsPath)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, _, err := client.Estimate(ctx); err != nil {
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

	exp := scrapeMetrics(t, client.BaseURL)
	if got := seriesValue(t, exp, `dpspatial_submissions_total{outcome="accepted"}`); got != float64(len(shards)) {
		t.Fatalf("accepted = %g after %d concurrent submissions, want %d", got, len(shards), len(shards))
	}
}
