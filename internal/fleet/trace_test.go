package fleet_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dpspatial/internal/collector"
	"dpspatial/internal/durable"
	"dpspatial/internal/fleet"
	"dpspatial/internal/trace"
)

// ringTrace polls a tracer's ring for a trace ID: completed traces are
// pushed after the response is written, so the client can hold the ack
// a beat before every tier's ring has the entry.
func ringTrace(t *testing.T, tr *trace.Tracer, id string) *trace.TraceData {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, td := range tr.Snapshot(0, "", 0) {
			if td.TraceID == id {
				return &td
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never reached the %s ring", id, tr.Service())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// servedTrace reads a tier's ring over GET /v1/traces, as operators
// and CI read another process's ring, and returns the trace with the
// given ID, or nil when the ring does not hold it.
func servedTrace(t *testing.T, baseURL, id string) *trace.TraceData {
	t.Helper()
	res, err := http.Get(baseURL + collector.TracesPath + "?min_ms=0")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var dump struct {
		Traces []trace.TraceData `json:"traces"`
	}
	if err := json.NewDecoder(res.Body).Decode(&dump); err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("GET %s%s: HTTP %d: %v", baseURL, collector.TracesPath, res.StatusCode, err)
	}
	for i := range dump.Traces {
		if dump.Traces[i].TraceID == id {
			return &dump.Traces[i]
		}
	}
	return nil
}

// waitServedTrace polls servedTrace for a trace ID, for the reason
// ringTrace polls.
func waitServedTrace(t *testing.T, baseURL, id string) *trace.TraceData {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if td := servedTrace(t, baseURL, id); td != nil {
			return td
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never reached the ring at %s", id, baseURL)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func traceSpan(td *trace.TraceData, name string) *trace.SpanData {
	for i := range td.Spans {
		if td.Spans[i].Name == name {
			return &td.Spans[i]
		}
	}
	return nil
}

func hasEvent(sp *trace.SpanData, name string) bool {
	if sp == nil {
		return false
	}
	for _, e := range sp.Events {
		if e.Name == name {
			return true
		}
	}
	return false
}

// TestFleetTraceStackedWithFailover drives ONE submission through a
// stacked topology — outer supervisor → inner supervisor → collector —
// with the outer supervisor's first-preference member down, and asserts
// a single W3C trace ID stitches all three tiers together: the outer
// ring shows the failed attempt plus the failover event, the inner
// supervisor's root span is parented on the outer's surviving route
// attempt, and the collector's root span is parented on the inner's —
// with the merge/ack span chain at the bottom.
func TestFleetTraceStackedWithFailover(t *testing.T) {
	mech := newDAM(t, 5, 1.8)
	pipeline := damPipeline(mech, 5, 1.8)
	shard := accumulateShards(t, mech, 1, 23)[0]

	// Bottom tier: one real collector, plus a gated member that answers
	// 503 from the start — the outer supervisor's round-robin prefers it
	// for the first submission and must fail over past it.
	c1, err := collector.New(collector.Config{Build: damBuild(t)})
	if err != nil {
		t.Fatal(err)
	}
	c1Srv := httptest.NewServer(c1)
	t.Cleanup(c1Srv.Close)

	down := &gate{}
	down.down.Store(true)
	downSrv := httptest.NewServer(down)
	t.Cleanup(downSrv.Close)

	// Middle tier: a supervisor fronting just the collector.
	s1, err := fleet.New(fleet.Config{
		Members: []string{c1Srv.URL}, Mechanism: newDAM(t, 5, 1.8), Pipeline: pipeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	s1Srv := httptest.NewServer(s1)
	t.Cleanup(func() { s1Srv.Close(); s1.Close() })

	// Top tier: the down member first, the inner supervisor second.
	s0, err := fleet.New(fleet.Config{
		Members: []string{downSrv.URL, s1Srv.URL}, Mechanism: newDAM(t, 5, 1.8), Pipeline: pipeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	s0Srv := httptest.NewServer(s0)
	t.Cleanup(func() { s0Srv.Close(); s0.Close() })

	client := collector.NewClient(s0Srv.URL)
	resp, err := client.SubmitAggregate(context.Background(), shard, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.TraceID) != 32 {
		t.Fatalf("ack trace ID %q is not 32 hex chars", resp.TraceID)
	}

	// One trace ID, three rings.
	outer := ringTrace(t, s0.Tracer(), resp.TraceID)
	inner := ringTrace(t, s1.Tracer(), resp.TraceID)
	leaf := waitServedTrace(t, c1Srv.URL, resp.TraceID)

	// Outer: root + two route attempts — the failed hop and the
	// survivor — and the failover event pinned on the root span.
	outerRoot := &outer.Spans[0]
	if !hasEvent(outerRoot, "failover") {
		t.Fatalf("outer root span lacks the failover event (events: %+v)", outerRoot.Events)
	}
	var failed, survived *trace.SpanData
	for i := range outer.Spans {
		sp := &outer.Spans[i]
		if sp.Name != "fleet.route.attempt" {
			continue
		}
		if sp.Error != "" {
			failed = sp
		} else {
			survived = sp
		}
	}
	if failed == nil || survived == nil {
		t.Fatalf("outer trace should hold one failed and one surviving route attempt: %+v", outer.Spans)
	}
	if failed.Attrs["member"] != downSrv.URL || survived.Attrs["member"] != s1Srv.URL {
		t.Fatalf("attempt member attrs wrong: failed=%v survived=%v", failed.Attrs["member"], survived.Attrs["member"])
	}
	if failed.ParentSpanID != outerRoot.SpanID || survived.ParentSpanID != outerRoot.SpanID {
		t.Fatal("route attempts not parented on the outer root span")
	}

	// Inner: its root is the REMOTE child of the outer's surviving
	// attempt — the cross-process edge of the trace.
	innerRoot := &inner.Spans[0]
	if !innerRoot.Remote {
		t.Fatal("inner supervisor root span not marked remote")
	}
	if innerRoot.ParentSpanID != survived.SpanID {
		t.Fatalf("inner root parent %s, want the outer surviving attempt %s", innerRoot.ParentSpanID, survived.SpanID)
	}
	innerAttempt := traceSpan(inner, "fleet.route.attempt")
	if innerAttempt == nil || innerAttempt.Error != "" {
		t.Fatalf("inner supervisor route attempt missing or failed: %+v", innerAttempt)
	}

	// Leaf: the collector's root hangs off the inner attempt, with the
	// merge/ack chain below it.
	leafRoot := &leaf.Spans[0]
	if !leafRoot.Remote || leafRoot.ParentSpanID != innerAttempt.SpanID {
		t.Fatalf("collector root (remote=%v parent=%s) not parented on the inner attempt %s",
			leafRoot.Remote, leafRoot.ParentSpanID, innerAttempt.SpanID)
	}
	for _, name := range []string{"collector.body.read", "collector.merge", "collector.ack"} {
		sp := traceSpan(leaf, name)
		if sp == nil {
			t.Fatalf("collector trace lacks the %s span", name)
		}
		if sp.ParentSpanID != leafRoot.SpanID {
			t.Fatalf("%s not parented on the collector root", name)
		}
	}

	// All three tiers agree this is one trace.
	if outer.TraceID != inner.TraceID || inner.TraceID != leaf.TraceID {
		t.Fatal("tiers disagree on the trace ID")
	}
}

// TestFleetTraceReachesOneDurableMember routes two report streams
// through a supervisor over two durable members and reads every ring
// over GET /v1/traces. Each ack's trace is in exactly one member ring,
// the acked member's, whose root hangs off the supervisor's route
// attempt and holds the member's body read, WAL append, merge and ack.
func TestFleetTraceReachesOneDurableMember(t *testing.T) {
	mech := newDAM(t, 5, 1.8)
	urls := make([]string, 2)
	for i := range urls {
		st, err := durable.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		c, err := collector.New(collector.Config{Build: damBuild(t), Store: st})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(c)
		t.Cleanup(func() { srv.Close(); st.Close() })
		urls[i] = srv.URL
	}
	sup, err := fleet.New(fleet.Config{Members: urls, Build: damBuild(t)})
	if err != nil {
		t.Fatal(err)
	}
	supSrv := httptest.NewServer(sup)
	t.Cleanup(supSrv.Close)
	client := collector.NewClient(supSrv.URL)

	acked := map[string]bool{}
	for seed := uint64(81); seed < 83; seed++ {
		resp, err := client.SubmitReports(context.Background(), damPipeline(mech, 5, 1.8), collectReports(t, mech, 50, seed))
		if err != nil {
			t.Fatal(err)
		}
		acked[resp.Member] = true
		attempt := traceSpan(waitServedTrace(t, supSrv.URL, resp.TraceID), "fleet.route.attempt")
		member := waitServedTrace(t, resp.Member, resp.TraceID)
		for _, url := range urls {
			if url != resp.Member && servedTrace(t, url, resp.TraceID) != nil {
				t.Fatalf("trace %s is in the rings of both members", resp.TraceID)
			}
		}
		root := &member.Spans[0]
		if attempt == nil || !root.Remote || root.ParentSpanID != attempt.SpanID {
			t.Fatalf("member root (remote=%v parent=%s) not parented on the supervisor's route attempt %+v", root.Remote, root.ParentSpanID, attempt)
		}
		for _, name := range []string{"collector.body.read", "collector.wal.append", "collector.merge", "collector.ack"} {
			if traceSpan(member, name) == nil {
				t.Fatalf("durable member's trace lacks the %s span: %+v", name, member.Spans)
			}
		}
	}
	if len(acked) != 2 {
		t.Fatalf("two submissions were acked by %v, want one by each member", acked)
	}
}

// TestFleetTraceScrapeUnderTraffic hammers a supervisor with concurrent
// submissions while scraping /v1/traces in a loop: the ring must stay
// race-free (the -race CI run is the point of this test) and every
// accepted submission must eventually complete a trace.
func TestFleetTraceScrapeUnderTraffic(t *testing.T) {
	mech := newDAM(t, 5, 1.8)
	pipeline := damPipeline(mech, 5, 1.8)
	f := startFleet(t, 2, newDAM(t, 5, 1.8), pipeline)

	shard := accumulateShards(t, mech, 1, 31)[0]
	blob, err := shard.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 4, 20
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := http.Get(f.client.BaseURL + collector.TracesPath + "?min_ms=0")
			if err != nil {
				continue
			}
			body, _ := io.ReadAll(res.Body)
			res.Body.Close()
			var dump struct {
				Traces []trace.TraceData `json:"traces"`
			}
			if err := json.Unmarshal(body, &dump); err != nil {
				t.Errorf("traces scrape not JSON under traffic: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	ctx := context.Background()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("trace-load-%d-%d", w, i)
				if _, err := f.client.SubmitAggregateBlobWithID(ctx, blob, nil, id); err != nil {
					t.Errorf("submit %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	// Every submission completes a trace (pushed post-response, so
	// poll); the ring holds at most its capacity of them.
	deadline := time.Now().Add(5 * time.Second)
	for f.sup.Tracer().Completed() < workers*perWorker {
		if time.Now().After(deadline) {
			t.Fatalf("completed %d traces, want >= %d", f.sup.Tracer().Completed(), workers*perWorker)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := len(f.sup.Tracer().Snapshot(0, "", 0)); got > trace.DefaultCapacity {
		t.Fatalf("ring snapshot %d entries, over capacity %d", got, trace.DefaultCapacity)
	}
}

// TestFleetTraceTreeQuery pins the fleet's tree-basis read path in the
// trace ring: an AHEAD range query through a two-member supervisor
// records the member pull, then the quadtree decode at the routed
// generation, and a repeat of the query at the same member state
// records a tree cache hit instead of a second decode.
func TestFleetTraceTreeQuery(t *testing.T) {
	urls := make([]string, 2)
	for i := range urls {
		c, err := collector.New(collector.Config{Build: aheadBuild})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(c)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	sup, err := fleet.New(fleet.Config{Members: urls, Build: aheadBuild})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sup)
	t.Cleanup(func() { srv.Close(); sup.Close() })
	client := collector.NewClient(srv.URL)
	blobs, pipeline := goldenShards(t)
	for _, blob := range blobs {
		if _, err := client.SubmitAggregateBlob(context.Background(), blob, pipeline); err != nil {
			t.Fatal(err)
		}
	}
	query := func() *trace.TraceData {
		t.Helper()
		res, err := http.Get(srv.URL + "/v1/query?type=range&x0=2&y0=0&x1=7&y1=5")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("range query: HTTP %d", res.StatusCode)
		}
		return ringTrace(t, sup.Tracer(), res.Header.Get(trace.TraceIDHeader))
	}

	first := query()
	root := &first.Spans[0]
	pullAt, decodeAt := -1, -1
	for i, sp := range first.Spans {
		switch sp.Name {
		case "fleet.pull":
			pullAt = i
		case "fleet.tree.decode":
			decodeAt = i
		default:
			continue
		}
		if sp.ParentSpanID != root.SpanID {
			t.Fatalf("%s not parented on the request root", sp.Name)
		}
	}
	if pullAt < 0 || decodeAt < pullAt {
		t.Fatalf("want fleet.pull then fleet.tree.decode, got spans %+v", first.Spans)
	}
	if gen := first.Spans[decodeAt].Attrs["generation"]; gen != int64(len(blobs)) {
		t.Fatalf("fleet.tree.decode generation = %#v, want the routed count %d", gen, len(blobs))
	}

	again := query()
	if !hasEvent(&again.Spans[0], "tree.cache.hit") {
		t.Fatalf("repeat query's root lacks the tree.cache.hit event (events: %+v)", again.Spans[0].Events)
	}
	if traceSpan(again, "fleet.tree.decode") != nil {
		t.Fatal("repeat query at an unchanged member state decoded the tree again")
	}
}
