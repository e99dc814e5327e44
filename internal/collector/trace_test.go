package collector_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpspatial/internal/collector"
	"dpspatial/internal/durable"
	"dpspatial/internal/trace"
)

// syncBuffer is an io.Writer safe to read while the slow logger's
// handler goroutines write.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// findTrace pulls the ring entry with the given ID out of a snapshot.
func findTrace(traces []trace.TraceData, id string) *trace.TraceData {
	for i := range traces {
		if traces[i].TraceID == id {
			return &traces[i]
		}
	}
	return nil
}

// waitTrace polls the ring for a trace ID: the root span is pushed
// after the response is written, so the client can hold the ack a beat
// before the trace lands.
func waitTrace(t *testing.T, tr *trace.Tracer, id string) *trace.TraceData {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if td := findTrace(tr.Snapshot(0, "", 0), id); td != nil {
			return td
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never reached the ring", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// spanByName returns the first span with the given name.
func spanByName(td *trace.TraceData, name string) *trace.SpanData {
	for i := range td.Spans {
		if td.Spans[i].Name == name {
			return &td.Spans[i]
		}
	}
	return nil
}

func spanNames(td *trace.TraceData) []string {
	names := make([]string, len(td.Spans))
	for i := range td.Spans {
		names[i] = td.Spans[i].Name
	}
	return names
}

// TestCollectorTraceEndToEnd drives one durable submission through a
// tokened collector and asserts the whole tracing story: the ack
// carries the trace ID, the ring holds the span chain — body read, WAL
// append with fsync'd bytes, merge, ack — correctly nested under the
// request root, the response header echoes the ID, the slow-request
// log line joins on it, and a duplicate resubmission replays the
// ORIGINAL submission's trace ID.
func TestCollectorTraceEndToEnd(t *testing.T) {
	mech := newDAM(t, 6, 2.0)
	st, err := durable.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var slowMu syncBuffer
	c, err := collector.New(collector.Config{
		Mechanism: mech,
		Pipeline:  durPipeline(mech, 6, 2.0),
		AuthToken: "s3cret",
		Store:     st,
		SlowLog:   &trace.SlowLogger{W: &slowMu},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	srv := httptest.NewServer(c)
	t.Cleanup(func() { srv.Close(); c.Close() })
	client := collector.NewClient(srv.URL)
	client.AuthToken = "s3cret"

	shard := accumulateShards(t, mech, 1, 3)[0]
	blob, err := shard.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	id := collector.NewSubmissionID()
	resp, err := client.SubmitAggregateBlobWithID(ctx, blob, nil, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.TraceID) != 32 {
		t.Fatalf("ack trace ID %q is not 32 hex chars", resp.TraceID)
	}

	td := waitTrace(t, c.Tracer(), resp.TraceID)
	if td.Service != "collector" || td.Outcome != trace.OutcomeOK {
		t.Fatalf("trace service/outcome = %q/%q", td.Service, td.Outcome)
	}
	root := &td.Spans[0]
	if root.Name != "POST /v1/aggregate" {
		t.Fatalf("root span %q, want POST /v1/aggregate", root.Name)
	}
	if !root.Remote {
		t.Fatal("root span not marked remote: the client should have propagated traceparent")
	}
	for _, name := range []string{"collector.body.read", "collector.wal.append", "collector.merge", "collector.ack"} {
		sp := spanByName(td, name)
		if sp == nil {
			t.Fatalf("span %s missing from trace (have %v)", name, spanNames(td))
		}
		if sp.ParentSpanID != root.SpanID {
			t.Fatalf("span %s parent %s, want root %s", name, sp.ParentSpanID, root.SpanID)
		}
	}
	wal := spanByName(td, "collector.wal.append")
	if b, ok := wal.Attrs["walBytes"].(int64); !ok || b <= 0 {
		t.Fatalf("collector.wal.append walBytes attr = %#v, want > 0", wal.Attrs["walBytes"])
	}
	if _, ok := wal.Attrs["fsyncMs"]; !ok {
		t.Fatal("collector.wal.append span lacks the fsyncMs attr")
	}

	// The response header echoes a trace ID on every traced request.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/stats", nil)
	req.Header.Set("Authorization", "Bearer s3cret")
	hres, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hres.Body)
	hres.Body.Close()
	if got := hres.Header.Get(trace.TraceIDHeader); len(got) != 32 {
		t.Fatalf("%s header = %q, want a 32-hex trace ID", trace.TraceIDHeader, got)
	}

	// The slow log (threshold 0 = log everything) joins on the trace ID.
	want := fmt.Sprintf("%q:%q", "traceId", resp.TraceID)
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(slowMu.String(), want) {
		if time.Now().After(deadline) {
			t.Fatalf("slow log lacks the submission's trace ID:\n%s", slowMu.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !strings.Contains(slowMu.String(), `"msg":"slow request"`) {
		t.Fatalf("slow log not in JSON format:\n%s", slowMu.String())
	}

	// A duplicate resubmission replays the ORIGINAL trace ID in its ack.
	dup, err := client.SubmitAggregateBlobWithID(ctx, blob, nil, id)
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Duplicate {
		t.Fatal("resubmission not flagged duplicate")
	}
	if dup.TraceID != resp.TraceID {
		t.Fatalf("duplicate ack trace %s, want the original %s", dup.TraceID, resp.TraceID)
	}
}

// TestSnapshotSpanOnSnapshottingSubmitOnly pins the collector.snapshot
// span: only the submission that trips the periodic snapshot carries
// it, as a child of the request root with the ack count written, and a
// failed snapshot fails the span while the submission still succeeds.
func TestSnapshotSpanOnSnapshottingSubmitOnly(t *testing.T) {
	mech := newDAM(t, 6, 2.0)
	st, err := durable.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var failing atomic.Bool
	st.Hooks.BeforeSnapshotRename = func() error {
		if failing.Load() {
			return errors.New("injected snapshot failure")
		}
		return nil
	}
	c, err := collector.New(collector.Config{Mechanism: mech, Pipeline: durPipeline(mech, 6, 2.0), Store: st, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A first snapshot covers the pin, so each submission is one WAL
	// record and the second and fourth trip the cadence of 2.
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c)
	t.Cleanup(func() { srv.Close(); c.Close() })
	client := collector.NewClient(srv.URL)

	for i, shard := range accumulateShards(t, mech, 5, 9) {
		failing.Store(i == 3)
		blob, err := shard.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.SubmitAggregateBlobWithID(context.Background(), blob, nil, collector.NewSubmissionID())
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		td := waitTrace(t, c.Tracer(), resp.TraceID)
		snap := spanByName(td, "collector.snapshot")
		if wantSnap := i == 1 || i == 3; (snap != nil) != wantSnap {
			t.Fatalf("submission %d: collector.snapshot present = %v, want %v (spans %v)", i, snap != nil, wantSnap, spanNames(td))
		}
		if snap == nil {
			continue
		}
		if snap.ParentSpanID != td.Spans[0].SpanID {
			t.Fatalf("collector.snapshot parent %s, want the root %s", snap.ParentSpanID, td.Spans[0].SpanID)
		}
		if n, ok := snap.Attrs["acks"].(int64); !ok || n != int64(i+1) {
			t.Fatalf("submission %d: collector.snapshot acks attr = %#v, want %d", i, snap.Attrs["acks"], i+1)
		}
		if failed := snap.Error != ""; failed != (i == 3) || td.Outcome != trace.OutcomeOK {
			t.Fatalf("submission %d: snapshot error %q, trace outcome %q", i, snap.Error, td.Outcome)
		}
	}
}

// TestTracesEndpointGatedAndFiltered pins the /v1/traces surface: it
// sits behind the bearer gate, serves JSON, honours min_ms/outcome
// filters with 400s on bad params, and scraping it perturbs neither
// the request metrics nor the ring — two quiesced /metrics scrapes
// bracketing a traces scrape stay byte-identical.
func TestTracesEndpointGatedAndFiltered(t *testing.T) {
	mech := newDAM(t, 6, 2.0)
	c, err := collector.New(collector.Config{Mechanism: mech, Pipeline: durPipeline(mech, 6, 2.0), AuthToken: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	srv := httptest.NewServer(c)
	t.Cleanup(func() { srv.Close(); c.Close() })
	client := collector.NewClient(srv.URL)
	client.AuthToken = "s3cret"

	shard := accumulateShards(t, mech, 1, 5)[0]
	blob, err := shard.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.SubmitAggregateBlobWithID(context.Background(), blob, nil, collector.NewSubmissionID())
	if err != nil {
		t.Fatal(err)
	}
	waitTrace(t, c.Tracer(), resp.TraceID)

	get := func(path, token string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		return res, body
	}

	if res, _ := get(collector.TracesPath, ""); res.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless /v1/traces = %d, want 401", res.StatusCode)
	}

	_, m1 := get(collector.MetricsPath, "s3cret")

	res, body := get(collector.TracesPath+"?min_ms=0", "s3cret")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/v1/traces = %d: %s", res.StatusCode, body)
	}
	var dump struct {
		Service string            `json:"service"`
		Count   uint64            `json:"count"`
		Traces  []trace.TraceData `json:"traces"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("/v1/traces is not JSON: %v\n%s", err, body)
	}
	if dump.Service != "collector" || dump.Count == 0 || len(dump.Traces) == 0 {
		t.Fatalf("empty traces dump: %+v", dump)
	}

	// An absurd min_ms filters everything out; a bad param is a 400.
	if _, body := get(collector.TracesPath+"?min_ms=1e12", "s3cret"); !strings.Contains(string(body), `"traces":[]`) {
		t.Fatalf("min_ms=1e12 returned traces: %s", body)
	}
	if res, _ := get(collector.TracesPath+"?min_ms=banana", "s3cret"); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad min_ms = %d, want 400", res.StatusCode)
	}
	if _, body := get(collector.TracesPath+"?outcome=error", "s3cret"); strings.Contains(string(body), `"outcome":"ok"`) {
		t.Fatalf("outcome=error leaked ok traces: %s", body)
	}

	// The scrapes above must not have perturbed the quiesced metrics:
	// /v1/traces and /metrics sit outside request accounting.
	_, m2 := get(collector.MetricsPath, "s3cret")
	if !bytes.Equal(m1, m2) {
		t.Fatalf("metrics scrapes bracketing a traces scrape differ:\n--- before\n%s\n--- after\n%s", m1, m2)
	}
	// And neither metrics nor traces scrapes entered the ring: exactly
	// the one submission trace was recorded.
	if n := c.Tracer().Completed(); n != 1 {
		t.Fatalf("ring recorded %d traces, want 1", n)
	}
}

// TestPprofGated pins the profiling surface: 404 unless EnablePprof,
// and behind the bearer gate when mounted.
func TestPprofGated(t *testing.T) {
	mech := newDAM(t, 6, 2.0)
	get := func(srvURL, token string) (int, []byte) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, srvURL+collector.PprofPathPrefix, nil)
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		return res.StatusCode, body
	}

	off, err := collector.New(collector.Config{Mechanism: mech, Pipeline: durPipeline(mech, 6, 2.0), AuthToken: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	offSrv := httptest.NewServer(off)
	t.Cleanup(offSrv.Close)
	if code, _ := get(offSrv.URL, ""); code != http.StatusUnauthorized {
		t.Fatalf("pprof-off tokenless = %d, want 401 (gate fires before routing)", code)
	}
	if code, _ := get(offSrv.URL, "s3cret"); code != http.StatusNotFound {
		t.Fatalf("pprof disabled but authed index = %d, want 404", code)
	}

	on, err := collector.New(collector.Config{Mechanism: mech, Pipeline: durPipeline(mech, 6, 2.0), AuthToken: "s3cret", EnablePprof: true})
	if err != nil {
		t.Fatal(err)
	}
	onSrv := httptest.NewServer(on)
	t.Cleanup(onSrv.Close)
	if code, _ := get(onSrv.URL, ""); code != http.StatusUnauthorized {
		t.Fatalf("tokenless pprof = %d, want 401", code)
	}
	code, body := get(onSrv.URL, "s3cret")
	if code != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("authed pprof index = %d:\n%.200s", code, body)
	}

	// pprof requests never enter the trace ring.
	if n := on.Tracer().Completed(); n != 0 {
		t.Fatalf("pprof scrapes recorded %d traces, want 0", n)
	}
}
