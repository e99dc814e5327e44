package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := NewSpanContext()
	if !sc.Valid() {
		t.Fatal("NewSpanContext returned an invalid context")
	}
	got, err := ParseTraceparent(sc.Traceparent())
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", sc.Traceparent(), err)
	}
	if got != sc {
		t.Fatalf("round trip: got %+v want %+v", got, sc)
	}
}

func TestParseTraceparentKnown(t *testing.T) {
	sc, err := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatal(err)
	}
	if sc.TraceIDString() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace ID = %q", sc.TraceIDString())
	}
	if sc.SpanIDString() != "00f067aa0ba902b7" {
		t.Fatalf("span ID = %q", sc.SpanIDString())
	}
	if sc.Flags != 1 {
		t.Fatalf("flags = %d", sc.Flags)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"garbage",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",      // 3 fields
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // version ff
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",   // zero trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",   // zero span ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-1",    // short flags
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",   // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e47-00f067aa0ba902b7-01",     // short trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x", // version 00 with 5 fields
	}
	for _, s := range bad {
		if _, err := ParseTraceparent(s); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted, want error", s)
		}
	}
	// A future version with extra fields is accepted.
	if _, err := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); err != nil {
		t.Errorf("future-version traceparent rejected: %v", err)
	}
}

func TestRootJoinsRemoteTrace(t *testing.T) {
	tr := NewTracer("test", 8)
	remote := NewSpanContext()
	root := tr.Root("GET /x", remote)
	if root.TraceID() != remote.TraceIDString() {
		t.Fatalf("root trace ID %s, want remote %s", root.TraceID(), remote.TraceIDString())
	}
	root.End()
	traces := tr.Snapshot(0, "", 0)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	if traces[0].Spans[0].ParentSpanID != remote.SpanIDString() || !traces[0].Spans[0].Remote {
		t.Fatalf("root span parent = %+v, want remote parent %s", traces[0].Spans[0], remote.SpanIDString())
	}
}

func TestSpanTreeAndAttrs(t *testing.T) {
	tr := NewTracer("test", 8)
	root := tr.Root("POST /v1/report", SpanContext{})
	root.SetAttr(String("submissionId", "abc"))
	child := root.Child("collector.wal.append")
	child.SetAttr(Int("walBytes", 512))
	child.End()
	fail := root.Child("collector.merge")
	fail.Fail(errors.New("boom"))
	fail.End()
	root.Event("duplicate.replay", String("id", "abc"))
	root.SetStatus(200)
	root.End()

	traces := tr.Snapshot(0, "", 0)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	td := traces[0]
	if td.Outcome != OutcomeOK {
		t.Fatalf("outcome = %q", td.Outcome)
	}
	if len(td.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(td.Spans))
	}
	rootSpan := td.Spans[0]
	if rootSpan.Name != "POST /v1/report" || rootSpan.ParentSpanID != "" {
		t.Fatalf("root span = %+v", rootSpan)
	}
	if rootSpan.Attrs["submissionId"] != "abc" {
		t.Fatalf("root attrs = %v", rootSpan.Attrs)
	}
	if len(rootSpan.Events) != 1 || rootSpan.Events[0].Name != "duplicate.replay" {
		t.Fatalf("root events = %+v", rootSpan.Events)
	}
	byName := map[string]SpanData{}
	for _, s := range td.Spans[1:] {
		byName[s.Name] = s
	}
	wal := byName["collector.wal.append"]
	if wal.ParentSpanID != rootSpan.SpanID {
		t.Fatalf("wal span parent %q, want root %q", wal.ParentSpanID, rootSpan.SpanID)
	}
	if v, ok := wal.Attrs["walBytes"].(int64); !ok || v != 512 {
		t.Fatalf("wal attrs = %v", wal.Attrs)
	}
	if byName["collector.merge"].Error != "boom" {
		t.Fatalf("merge span error = %q", byName["collector.merge"].Error)
	}
}

func TestErrorOutcome(t *testing.T) {
	tr := NewTracer("test", 8)
	root := tr.Root("POST /v1/report", SpanContext{})
	root.SetStatus(503)
	root.End()
	traces := tr.Snapshot(0, OutcomeError, 0)
	if len(traces) != 1 || traces[0].Outcome != OutcomeError {
		t.Fatalf("error filter: %+v", traces)
	}
	if got := tr.Snapshot(0, OutcomeOK, 0); len(got) != 0 {
		t.Fatalf("ok filter returned %d traces", len(got))
	}
}

func TestRingBoundedNewestFirst(t *testing.T) {
	tr := NewTracer("test", 4)
	for i := 0; i < 10; i++ {
		root := tr.Root(fmt.Sprintf("req-%d", i), SpanContext{})
		root.End()
	}
	if tr.Completed() != 10 {
		t.Fatalf("Completed = %d, want 10", tr.Completed())
	}
	traces := tr.Snapshot(0, "", 0)
	if len(traces) != 4 {
		t.Fatalf("ring holds %d, want 4", len(traces))
	}
	for i, want := range []string{"req-9", "req-8", "req-7", "req-6"} {
		if traces[i].Root != want {
			t.Fatalf("traces[%d] = %q, want %q (newest first)", i, traces[i].Root, want)
		}
	}
	if got := tr.Snapshot(0, "", 2); len(got) != 2 || got[0].Root != "req-9" {
		t.Fatalf("limit=2 snapshot: %+v", got)
	}
}

func TestSnapshotMinDuration(t *testing.T) {
	tr := NewTracer("test", 8)
	fast := tr.Root("fast", SpanContext{})
	fast.End()
	slow := tr.Root("slow", SpanContext{})
	time.Sleep(15 * time.Millisecond)
	slow.End()
	traces := tr.Snapshot(10*time.Millisecond, "", 0)
	if len(traces) != 1 || traces[0].Root != "slow" {
		t.Fatalf("min-duration filter: %+v", traces)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	root := tr.Root("x", SpanContext{})
	if root != nil {
		t.Fatal("nil tracer minted a span")
	}
	// Every method must no-op on nil.
	root.SetAttr(String("k", "v"))
	root.SetStatus(200)
	root.Fail(errors.New("x"))
	root.Event("e")
	child := root.Child("c")
	child.End()
	root.End()
	if root.TraceID() != "" || root.Context().Valid() {
		t.Fatal("nil span leaked identity")
	}
	if tr.Snapshot(0, "", 0) != nil || tr.Completed() != 0 || tr.Service() != "" {
		t.Fatal("nil tracer leaked state")
	}
	var sl *SlowLogger
	sl.Log("svc", "tid", "GET", "/x", 200, time.Second)
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if _, ok := Outgoing(ctx); ok {
		t.Fatal("empty context has an outgoing trace")
	}
	sc := NewSpanContext()
	ctx = ContextWithRemote(ctx, sc)
	got, ok := Outgoing(ctx)
	if !ok || got != sc {
		t.Fatalf("Outgoing(remote) = %+v, %v", got, ok)
	}
	tr := NewTracer("test", 4)
	span := tr.Root("op", SpanContext{})
	ctx = ContextWithSpan(ctx, span)
	if SpanFrom(ctx) != span {
		t.Fatal("SpanFrom lost the span")
	}
	got, ok = Outgoing(ctx)
	if !ok || got != span.Context() {
		t.Fatal("local span must win over remote context")
	}
	span.End()
}

func TestConcurrentRecordAndScrape(t *testing.T) {
	tr := NewTracer("test", 16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				root := tr.Root(fmt.Sprintf("g%d-%d", g, i), SpanContext{})
				// Children ending on a different goroutine than the root,
				// like the fleet's concurrent member pulls.
				var cw sync.WaitGroup
				for c := 0; c < 3; c++ {
					child := root.Child("child")
					cw.Add(1)
					go func() {
						defer cw.Done()
						child.SetAttr(Int("i", int64(c)))
						child.End()
					}()
				}
				cw.Wait()
				root.End()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.Snapshot(0, "", 0)
			}
		}
	}()
	// Let the scraper overlap the writers, then stop it and wait for all.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if tr.Completed() != 800 {
		t.Fatalf("Completed = %d, want 800", tr.Completed())
	}
	for _, td := range tr.Snapshot(0, "", 0) {
		if len(td.Spans) != 4 {
			t.Fatalf("trace %s has %d spans, want 4", td.TraceID, len(td.Spans))
		}
	}
}

func TestHandlerFiltersAndErrors(t *testing.T) {
	tr := NewTracer("collector", 8)
	ok := tr.Root("POST /v1/report", SpanContext{})
	ok.SetStatus(200)
	ok.End()
	bad := tr.Root("POST /v1/aggregate", SpanContext{})
	bad.SetStatus(409)
	bad.End()

	h := tr.Handler()
	get := func(url string) (*httptest.ResponseRecorder, map[string]any) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, url, nil))
		var body map[string]any
		if rr.Code == http.StatusOK {
			if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
				t.Fatalf("bad JSON from %s: %v", url, err)
			}
		}
		return rr, body
	}

	rr, body := get("/v1/traces")
	if rr.Code != 200 || body["count"].(float64) != 2 || body["service"] != "collector" {
		t.Fatalf("unfiltered: code %d body %v", rr.Code, body)
	}
	_, body = get("/v1/traces?outcome=error")
	if body["count"].(float64) != 1 {
		t.Fatalf("outcome=error count %v", body["count"])
	}
	_, body = get("/v1/traces?min_ms=100000")
	if body["count"].(float64) != 0 {
		t.Fatalf("min_ms huge count %v", body["count"])
	}
	_, body = get("/v1/traces?min_ms=0&limit=1")
	if body["count"].(float64) != 1 {
		t.Fatalf("limit=1 count %v", body["count"])
	}
	for _, url := range []string{"/v1/traces?min_ms=x", "/v1/traces?min_ms=-1", "/v1/traces?outcome=weird", "/v1/traces?limit=x"} {
		if rr, _ := get(url); rr.Code != http.StatusBadRequest {
			t.Fatalf("%s: code %d, want 400", url, rr.Code)
		}
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/traces", nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST: code %d, want 405", rr.Code)
	}
}

func TestSlowLoggerThreshold(t *testing.T) {
	var buf bytes.Buffer
	l := &SlowLogger{W: &buf, Threshold: 100 * time.Millisecond}
	l.Log("collector", "tid", "GET", "/x", 200, 50*time.Millisecond)
	if buf.Len() != 0 {
		t.Fatal("sub-threshold request logged")
	}
	l.Log("collector", "abcdef", "GET", "/x", 200, 150*time.Millisecond)
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil || strings.Count(buf.String(), "\n") != 1 {
		t.Fatalf("slow log %q is not one JSON line: %v", buf.String(), err)
	}
	for k, want := range map[string]any{"msg": "slow request", "service": "collector", "path": "/x", "status": 200.0, "traceId": "abcdef"} {
		if line[k] != want {
			t.Fatalf("slow line %q: %s = %v, want %v", buf.String(), k, line[k], want)
		}
	}
}

// FuzzParseTraceparent parses arbitrary traceparent header values, which
// both tiers read from every request. It must not panic, an accepted
// context is Valid, and an accepted version-00 value renders back byte
// for byte through Traceparent.
func FuzzParseTraceparent(f *testing.F) {
	for _, seed := range []string{
		NewSpanContext().Traceparent(),
		"00-00000000000000000000000000000000-0000000000000000-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, err := ParseTraceparent(s)
		if err != nil {
			return
		}
		if !sc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted an invalid context %+v", s, sc)
		}
		if strings.HasPrefix(s, "00-") && sc.Traceparent() != s {
			t.Fatalf("ParseTraceparent(%q) renders back as %q", s, sc.Traceparent())
		}
	})
}
