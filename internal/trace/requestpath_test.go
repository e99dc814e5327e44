package trace_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dpspatial/internal/collector"
	"dpspatial/internal/trace"
)

// The request-tracing contract — one root span per request joined to an
// incoming traceparent, the trace ID echoed, the response status on the
// root span, one slow-log line per request, and no trace or log for the
// observability surfaces — is applied by collector.Engine.ServeHTTP, the
// one request path of both serving tiers. These tests drive it there,
// from the side of the package whose spans and slow log it produces.

// newEngine builds a collector-tier Engine over routes, with tracing on
// or off and the given slow logger (nil: none).
func newEngine(tracing bool, slow *trace.SlowLogger, routes map[string]http.HandlerFunc) *collector.Engine {
	return collector.NewEngine(collector.EngineConfig{
		Tier: "collector", Service: "collector",
		Source: func(context.Context, uint64, bool) (collector.State, error) {
			return collector.State{}, errors.New("no reports merged yet")
		},
		Routes:        routes,
		DisableTraces: !tracing,
		SlowLog:       slow,
	})
}

// servedRing reads the engine's completed-trace ring over GET
// /v1/traces, as operators and CI read a daemon's.
func servedRing(t *testing.T, e *collector.Engine) []trace.TraceData {
	t.Helper()
	rr := httptest.NewRecorder()
	e.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, collector.TracesPath, nil))
	var dump struct {
		Traces []trace.TraceData `json:"traces"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &dump); err != nil || rr.Code != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %v", collector.TracesPath, rr.Code, err)
	}
	return dump.Traces
}

func TestMiddleware(t *testing.T) {
	var slowBuf bytes.Buffer
	slow := &trace.SlowLogger{W: &slowBuf, Threshold: 0}
	e := newEngine(true, slow, map[string]http.HandlerFunc{
		"/v1/report": func(w http.ResponseWriter, r *http.Request) {
			span := trace.SpanFrom(r.Context())
			if span == nil {
				t.Error("no span in handler context")
			}
			child := span.Child("inner.op")
			child.End()
			w.WriteHeader(http.StatusAccepted)
		},
	})

	remote := trace.NewSpanContext()
	req := httptest.NewRequest(http.MethodPost, "/v1/report", strings.NewReader("x"))
	req.Header.Set(trace.TraceparentHeader, remote.Traceparent())
	rr := httptest.NewRecorder()
	e.ServeHTTP(rr, req)

	gotID := rr.Header().Get(trace.TraceIDHeader)
	if gotID != remote.TraceIDString() {
		t.Fatalf("echoed trace ID %q, want joined remote %q", gotID, remote.TraceIDString())
	}
	traces := servedRing(t, e)
	if len(traces) != 1 {
		t.Fatalf("got %d traces", len(traces))
	}
	td := traces[0]
	if td.Root != "POST /v1/report" || td.TraceID != remote.TraceIDString() {
		t.Fatalf("trace = %+v", td)
	}
	if td.Spans[0].Status != http.StatusAccepted {
		t.Fatalf("root status = %d", td.Spans[0].Status)
	}
	if len(td.Spans) != 2 || td.Spans[1].Name != "inner.op" {
		t.Fatalf("spans = %+v", td.Spans)
	}

	var line map[string]any
	if err := json.Unmarshal(slowBuf.Bytes(), &line); err != nil {
		t.Fatalf("slow log not JSON: %v (%q)", err, slowBuf.String())
	}
	if line["traceId"] != gotID || line["path"] != "/v1/report" || line["status"].(float64) != 202 {
		t.Fatalf("slow line = %v", line)
	}

	// Untraced path: no trace, no header, no log.
	slowBuf.Reset()
	rr = httptest.NewRecorder()
	e.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, collector.MetricsPath, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("%s = %d", collector.MetricsPath, rr.Code)
	}
	if rr.Header().Get(trace.TraceIDHeader) != "" {
		t.Fatal("untraced path got a trace header")
	}
	if n := len(servedRing(t, e)); n != 1 {
		t.Fatalf("untraced path recorded a trace: %d", n)
	}
	if slowBuf.Len() != 0 {
		t.Fatal("untraced path logged")
	}
}

// TestMiddlewareNilTracerSlowLog: with tracing off, a slow logger still
// logs every request outside the observability surfaces, under the
// tier's service name and with an empty trace ID, and no trace header is
// echoed.
func TestMiddlewareNilTracerSlowLog(t *testing.T) {
	var buf bytes.Buffer
	slow := &trace.SlowLogger{W: &buf}
	untraced := func(status int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if trace.SpanFrom(r.Context()) != nil {
				t.Error("untraced request has a span in context")
			}
			if status != 0 {
				w.WriteHeader(status)
			}
		}
	}
	e := newEngine(false, slow, map[string]http.HandlerFunc{
		"/v1/report": untraced(http.StatusAccepted),
		"/v1/stats":  untraced(0), // writes nothing: logged as 200
	})
	for _, path := range []string{"/v1/report", collector.MetricsPath, "/v1/stats"} {
		rr := httptest.NewRecorder()
		e.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		if _, ok := rr.Header()[trace.TraceIDHeader]; ok {
			t.Fatalf("%s: untraced request echoed a trace header", path)
		}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d slow lines, want 2:\n%s", len(lines), buf.String())
	}
	for i, want := range []struct {
		path   string
		status float64
	}{{"/v1/report", 202}, {"/v1/stats", 200}} {
		var line map[string]any
		if err := json.Unmarshal([]byte(lines[i]), &line); err != nil {
			t.Fatalf("slow line %d not JSON: %v (%q)", i, err, lines[i])
		}
		if line["path"] != want.path || line["status"] != want.status ||
			line["service"] != "collector" || line["traceId"] != "" {
			t.Fatalf("slow line %d = %v", i, line)
		}
	}
}

// TestMiddlewareNilTracerPassthrough: with neither tracing nor a slow
// logger, a handler's status reaches the client unchanged and no trace
// header is added.
func TestMiddlewareNilTracerPassthrough(t *testing.T) {
	e := newEngine(false, nil, map[string]http.HandlerFunc{
		"/x": func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(204) },
	})
	rr := httptest.NewRecorder()
	e.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rr.Code != 204 || rr.Header().Get(trace.TraceIDHeader) != "" {
		t.Fatalf("untraced request path altered the response: %d %q", rr.Code, rr.Header().Get(trace.TraceIDHeader))
	}
}
