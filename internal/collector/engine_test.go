package collector_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dpspatial/internal/collector"
	"dpspatial/internal/trace"
)

// requestSeries reads the engine's dpspatial_http_requests_total series,
// keyed by their rendered labels (`path="…",code="…"`).
func requestSeries(t *testing.T, e *collector.Engine) map[string]string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := e.Registry().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, "dpspatial_http_requests_total{")
		if !ok {
			continue
		}
		labels, value, _ := strings.Cut(rest, "} ")
		out[labels] = value
	}
	return out
}

// TestEnginePathClasses pins how the one request path treats each class
// of URL path: whether the bearer gate applies, which request series
// counts it, whether it is traced — a ring entry joined to the incoming
// traceparent, with the trace ID echoed — and whether it is slow-logged.
// With tracing off, the traced classes are still slow-logged, with an
// empty trace ID, and no trace header is sent.
func TestEnginePathClasses(t *testing.T) {
	const token = "s3cret"
	cases := []struct {
		name         string
		method, path string
		token        bool
		code         int
		gated        bool
		series       string // request series it is counted under; "" = not counted
		traced       bool   // ring entry, echoed trace ID, joined traceparent
		spans        int    // spans in its trace
		slowLogged   bool
	}{
		{"health probe", http.MethodGet, "/healthz", false, http.StatusOK, false, `path="/healthz",code="200"`, false, 0, false},
		{"metrics", http.MethodGet, collector.MetricsPath, true, http.StatusOK, true, "", false, 0, false},
		{"traces", http.MethodGet, collector.TracesPath, true, http.StatusOK, true, "", false, 0, false},
		{"pprof", http.MethodGet, collector.PprofPathPrefix, true, http.StatusOK, true, "", false, 0, false},
		{"data route", http.MethodPost, "/v1/report", true, http.StatusAccepted, true, `path="/v1/report",code="202"`, true, 2, true},
		{"data route without a token", http.MethodPost, "/v1/report", false, http.StatusUnauthorized, true, `path="/v1/report",code="401"`, true, 1, true},
		{"unknown path", http.MethodGet, "/no/such/path", true, http.StatusNotFound, true, `path="other",code="404"`, true, 1, true},
	}

	for _, tracing := range []bool{true, false} {
		slow := &syncBuffer{}
		e := collector.NewEngine(collector.EngineConfig{
			Tier: "collector", Service: "collector",
			Source: func(context.Context, uint64, bool) (collector.State, error) {
				return collector.State{}, errors.New("no reports merged yet")
			},
			Routes: map[string]http.HandlerFunc{
				"/v1/report": func(w http.ResponseWriter, r *http.Request) {
					span := trace.SpanFrom(r.Context())
					if (span != nil) != tracing {
						t.Errorf("tracing=%v, yet the handler's span is %v", tracing, span)
					}
					span.Child("test.op").End()
					w.WriteHeader(http.StatusAccepted)
				},
			},
			AuthToken:     token,
			DisableTraces: !tracing,
			EnablePprof:   true,
			SlowLog:       &trace.SlowLogger{W: slow},
		})
		serve := func(method, path string, withToken bool, remote trace.SpanContext) *httptest.ResponseRecorder {
			req := httptest.NewRequest(method, path, strings.NewReader("x"))
			if withToken {
				req.Header.Set("Authorization", "Bearer "+token)
			}
			req.Header.Set(trace.TraceparentHeader, remote.Traceparent())
			rr := httptest.NewRecorder()
			e.ServeHTTP(rr, req)
			return rr
		}

		for _, c := range cases {
			t.Run(fmt.Sprintf("tracing=%v/%s", tracing, c.name), func(t *testing.T) {
				code := c.code
				if c.path == collector.TracesPath && !tracing {
					code = http.StatusNotFound // the ring is unrouted
				}
				traced := c.traced && tracing

				tokenless := serve(c.method, c.path, false, trace.NewSpanContext())
				if gated := tokenless.Code == http.StatusUnauthorized; gated != c.gated {
					t.Fatalf("tokenless %s %s = %d: gated=%v, want %v", c.method, c.path, tokenless.Code, gated, c.gated)
				}

				before := requestSeries(t, e)
				completed := e.Tracer().Completed()
				logged := len(slow.String())
				remote := trace.NewSpanContext()
				rr := serve(c.method, c.path, c.token, remote)
				if rr.Code != code {
					t.Fatalf("%s %s = %d, want %d", c.method, c.path, rr.Code, code)
				}

				var moved []string
				for labels, value := range requestSeries(t, e) {
					if before[labels] != value {
						moved = append(moved, labels)
					}
				}
				if c.series == "" && len(moved) != 0 || c.series != "" && (len(moved) != 1 || moved[0] != c.series) {
					t.Fatalf("request series moved: %v, want [%s]", moved, c.series)
				}

				echoed, hasHeader := rr.Header()[trace.TraceIDHeader]
				if hasHeader != traced {
					t.Fatalf("trace header %v sent=%v, want %v", echoed, hasHeader, traced)
				}
				if !traced {
					if n := e.Tracer().Completed(); n != completed {
						t.Fatalf("untraced request recorded %d traces", n-completed)
					}
				} else {
					tds := e.Tracer().Snapshot(0, "", 1)
					if e.Tracer().Completed() != completed+1 || len(tds) != 1 {
						t.Fatalf("traced request recorded %d traces", e.Tracer().Completed()-completed)
					}
					td := tds[0]
					root := td.Spans[0]
					if td.TraceID != remote.TraceIDString() || echoed[0] != td.TraceID ||
						root.ParentSpanID != remote.SpanIDString() || !root.Remote {
						t.Fatalf("trace %s (echoed %v, root %+v) is not joined to traceparent %s", td.TraceID, echoed, root, remote.Traceparent())
					}
					if td.Root != c.method+" "+c.path || root.Status != code || len(td.Spans) != c.spans {
						t.Fatalf("trace = %+v", td)
					}
				}

				lines := slow.String()[logged:]
				if !c.slowLogged {
					if lines != "" {
						t.Fatalf("slow log wrote %q", lines)
					}
					return
				}
				var line map[string]any
				if err := json.Unmarshal([]byte(lines), &line); err != nil || strings.Count(lines, "\n") != 1 {
					t.Fatalf("want one JSON slow-log line, got %q (%v)", lines, err)
				}
				traceID := ""
				if traced {
					traceID = remote.TraceIDString()
				}
				if line["service"] != "collector" || line["method"] != c.method || line["path"] != c.path ||
					line["status"] != float64(code) || line["traceId"] != traceID {
					t.Fatalf("slow-log line = %v, want traceId %q", line, traceID)
				}
			})
		}
	}
}
