// Package trace is the dependency-free request-tracing layer under the
// collector and fleet tiers: W3C trace-context propagation, in-process
// span recording, and a bounded in-memory ring of completed traces that
// GET /v1/traces serves.
//
// The model is deliberately small. A request owns one root span, opened
// by collector.Engine.ServeHTTP, the one request path of both tiers;
// handlers hang child spans and point-in-time events off it for the
// phases worth attributing — body read, WAL append+fsync, merge, ack, EM
// decode, per-member routing attempts.
// When the root span ends, the whole trace is assembled and pushed into
// the tracer's ring, newest first. Cross-tier causality rides the W3C
// `traceparent` header: the client mints one per submission, every tier
// joins the incoming trace instead of starting its own, and each tier
// echoes the trace ID back in the X-Dpspatial-Trace-Id response header
// — so one submission shows up under ONE trace ID at the client, the
// supervisor, and the member it was routed to.
//
// Span recording is allocation-light (no background goroutines, no
// timers; one ring slot per completed trace) and safe under concurrent
// traffic: spans of one trace may start and end on different goroutines
// (the fleet's concurrent member pulls do), and scraping the ring never
// blocks recording. All Span methods are nil-receiver safe, so code
// paths without an active trace — the cadence loops — cost a nil check
// and nothing else.
package trace

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	mathrand "math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Wire headers of the tracing layer.
const (
	// TraceparentHeader is the W3C trace-context request header:
	// "00-<32 hex trace id>-<16 hex parent span id>-<2 hex flags>".
	TraceparentHeader = "traceparent"
	// TraceIDHeader is the response header every traced endpoint echoes
	// the request's trace ID in, so a client can join its submission to
	// the server-side /v1/traces entry without parsing any body.
	TraceIDHeader = "X-Dpspatial-Trace-Id"
)

// DefaultCapacity is the completed-trace ring size a Tracer gets when
// constructed with a non-positive capacity.
const DefaultCapacity = 256

// Outcome values of a completed trace, filterable via ?outcome= on
// /v1/traces.
const (
	// OutcomeOK marks a trace whose root span ended with a status below
	// 400 and no recorded error.
	OutcomeOK = "ok"
	// OutcomeError marks a trace whose root span failed: a 4xx/5xx
	// status or an explicit error.
	OutcomeError = "error"
)

// SpanContext identifies one span's position in a distributed trace:
// the shared 16-byte trace ID and this span's 8-byte ID.
type SpanContext struct {
	// TraceID is shared by every span of the trace, across processes.
	TraceID [16]byte
	// SpanID identifies this span within the trace.
	SpanID [8]byte
	// Flags is the W3C trace-flags byte (bit 0 = sampled).
	Flags byte
}

// Valid reports whether the context carries a usable (nonzero) trace
// and span ID.
func (sc SpanContext) Valid() bool {
	return sc.TraceID != [16]byte{} && sc.SpanID != [8]byte{}
}

// TraceIDString renders the trace ID as 32 lowercase hex characters —
// the form the traceparent header, the X-Dpspatial-Trace-Id echo and
// /v1/traces all use.
func (sc SpanContext) TraceIDString() string { return hex.EncodeToString(sc.TraceID[:]) }

// SpanIDString renders the span ID as 16 lowercase hex characters.
func (sc SpanContext) SpanIDString() string { return hex.EncodeToString(sc.SpanID[:]) }

// Traceparent renders the context as a version-00 W3C traceparent
// header value.
func (sc SpanContext) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-%02x", sc.TraceIDString(), sc.SpanIDString(), sc.Flags)
}

// NewSpanContext mints a fresh sampled context with random trace and
// span IDs — what a client does before its first hop of a new trace.
func NewSpanContext() SpanContext {
	var sc SpanContext
	fillRandom(sc.TraceID[:])
	fillRandom(sc.SpanID[:])
	sc.Flags = 1
	return sc
}

// fillRandom fills b with random bytes, never all zero (the W3C
// invalid-ID value). math/rand/v2's global generator is ChaCha8 seeded
// from the OS entropy pool and lock-free per P, so minting IDs costs no
// syscall on the submission hot path.
func fillRandom(b []byte) {
	for {
		zero := true
		for i := 0; i < len(b); i += 8 {
			v := mathrand.Uint64()
			for j := i; j < len(b) && j < i+8; j++ {
				b[j] = byte(v)
				v >>= 8
				if b[j] != 0 {
					zero = false
				}
			}
		}
		if !zero {
			return
		}
	}
}

// ParseTraceparent parses a W3C traceparent header value. Future
// versions (anything but "ff") are accepted as long as the four
// version-00 fields parse; an all-zero trace or span ID is invalid per
// the spec and refused.
func ParseTraceparent(s string) (SpanContext, error) {
	var sc SpanContext
	parts := strings.Split(s, "-")
	if len(parts) < 4 {
		return sc, fmt.Errorf("trace: traceparent %q: want 4 dash-separated fields, got %d", s, len(parts))
	}
	version, traceID, spanID, flags := parts[0], parts[1], parts[2], parts[3]
	if len(version) != 2 || !isHex(version) {
		return sc, fmt.Errorf("trace: traceparent %q: bad version field", s)
	}
	if version == "ff" {
		return sc, fmt.Errorf("trace: traceparent %q: version ff is forbidden", s)
	}
	if version == "00" && len(parts) != 4 {
		return sc, fmt.Errorf("trace: traceparent %q: version 00 has exactly 4 fields", s)
	}
	if len(traceID) != 32 || !isHex(traceID) {
		return sc, fmt.Errorf("trace: traceparent %q: trace ID must be 32 hex characters", s)
	}
	if len(spanID) != 16 || !isHex(spanID) {
		return sc, fmt.Errorf("trace: traceparent %q: span ID must be 16 hex characters", s)
	}
	if len(flags) != 2 || !isHex(flags) {
		return sc, fmt.Errorf("trace: traceparent %q: flags must be 2 hex characters", s)
	}
	hex.Decode(sc.TraceID[:], []byte(traceID))
	hex.Decode(sc.SpanID[:], []byte(spanID))
	var fb [1]byte
	hex.Decode(fb[:], []byte(flags))
	sc.Flags = fb[0]
	if sc.TraceID == [16]byte{} {
		return SpanContext{}, fmt.Errorf("trace: traceparent %q: all-zero trace ID is invalid", s)
	}
	if sc.SpanID == [8]byte{} {
		return SpanContext{}, fmt.Errorf("trace: traceparent %q: all-zero span ID is invalid", s)
	}
	return sc, nil
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Attr is one key-value annotation on a span or event. Values are
// stringified at JSON time; keep them to strings, integers, floats and
// booleans.
type Attr struct {
	// Key names the attribute.
	Key string
	// Value is the attribute payload.
	Value any
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr { return Attr{Key: key, Value: value} }

// Float builds a float attribute.
func Float(key string, value float64) Attr { return Attr{Key: key, Value: value} }

// EventData is one point-in-time annotation inside a span — how
// failover hops and sticky pins are recorded without opening a span per
// incident.
type EventData struct {
	// Name labels the event (e.g. "failover", "sticky.pin").
	Name string `json:"name"`
	// OffsetMs is the event's time since the span started.
	OffsetMs float64 `json:"offsetMs"`
	// Attrs carries the event annotations.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// SpanData is the completed, immutable form of one span as /v1/traces
// serves it.
type SpanData struct {
	// Name is the span's operation name (e.g. "collector.wal.append").
	Name string `json:"name"`
	// SpanID and ParentSpanID place the span in the trace tree; a root
	// span's ParentSpanID names the REMOTE parent (the upstream tier's
	// span) when the request carried a traceparent, and is empty when
	// this tier started the trace.
	SpanID       string `json:"spanId"`
	ParentSpanID string `json:"parentSpanId,omitempty"`
	// Remote marks a ParentSpanID that lives in another process — set on
	// a root span joined to an incoming traceparent.
	Remote bool `json:"remoteParent,omitempty"`
	// Start is the span's wall-clock start (RFC 3339, nanoseconds).
	Start time.Time `json:"start"`
	// DurationMs is the span's monotonic-clock duration.
	DurationMs float64 `json:"durationMs"`
	// Status is the HTTP-shaped status of the span (0 = unset; root
	// spans carry the response status).
	Status int `json:"status,omitempty"`
	// Error is the recorded failure, empty on success.
	Error string `json:"error,omitempty"`
	// Attrs carries the span annotations (submission ID, member,
	// generation, WAL bytes, ...).
	Attrs map[string]any `json:"attrs,omitempty"`
	// Events are the span's point-in-time annotations, in order.
	Events []EventData `json:"events,omitempty"`
}

// TraceData is one completed trace: the root span plus every child
// recorded in this process, in start order.
type TraceData struct {
	// TraceID is the 32-hex-character distributed trace ID.
	TraceID string `json:"traceId"`
	// Service is the recording tier ("collector", "supervisor").
	Service string `json:"service"`
	// Root is the root span's name — "POST /v1/report" shaped.
	Root string `json:"root"`
	// Start is the root span's wall-clock start.
	Start time.Time `json:"start"`
	// DurationMs is the root span's duration.
	DurationMs float64 `json:"durationMs"`
	// Outcome is OutcomeOK or OutcomeError, from the root span.
	Outcome string `json:"outcome"`
	// Spans holds the root span first, then the children in end order.
	Spans []SpanData `json:"spans"`
}

// Tracer records completed traces for one service tier into a bounded
// ring. The zero value is not usable; construct with NewTracer. A nil
// *Tracer is safe to call and records nothing.
type Tracer struct {
	service string

	mu    sync.Mutex
	ring  []TraceData // ring[(head-1-i) mod cap] is the i-th newest
	head  int         // next write position
	count int         // filled slots, <= cap(ring)
	total uint64      // completed traces ever, monotonic
}

// NewTracer builds a tracer for the named service tier with a
// completed-trace ring of the given capacity (<= 0 selects
// DefaultCapacity).
func NewTracer(service string, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{service: service, ring: make([]TraceData, capacity)}
}

// Service reports the tier name the tracer records under.
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.service
}

// Root opens the root span of a new local trace. A valid remote context
// joins the incoming distributed trace (same trace ID, remote parent);
// an invalid one starts a fresh trace. End the returned span to commit
// the whole trace to the ring.
func (t *Tracer) Root(name string, remote SpanContext) *Span {
	if t == nil {
		return nil
	}
	sc := NewSpanContext()
	remoteParent := ""
	if remote.Valid() {
		sc.TraceID = remote.TraceID
		sc.Flags = remote.Flags | 1
		remoteParent = remote.SpanIDString()
	}
	rec := &traceRec{tracer: t}
	s := &Span{
		rec:    rec,
		sc:     sc,
		parent: remoteParent,
		remote: remoteParent != "",
		name:   name,
		start:  time.Now(),
	}
	rec.root = s
	rec.open = 1
	return s
}

// traceRec accumulates the completed spans of one in-flight trace. Its
// mutex serialises children ending on different goroutines against each
// other and against the final assembly.
type traceRec struct {
	tracer *Tracer
	root   *Span

	mu    sync.Mutex
	done  []SpanData
	open  int  // spans started and not yet ended (root included)
	ended bool // root has ended; the trace is committed
}

// Span is one in-flight operation of a trace. All methods are safe on a
// nil receiver (no-ops), so untraced code paths need no conditionals.
// A span's own fields are mutated only by the goroutine driving that
// operation; cross-goroutine coordination happens in the traceRec.
type Span struct {
	rec    *traceRec
	sc     SpanContext
	parent string // parent span ID, hex ("" = root of a fresh trace)
	remote bool
	name   string
	start  time.Time
	status int
	err    string
	attrs  []Attr
	events []EventData
	ended  bool
}

// TraceID returns the span's 32-hex-character trace ID, empty on a nil
// span.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.sc.TraceIDString()
}

// Child opens a sub-span under s. Ending the child records it into the
// trace; children left open when the root ends are dropped (they would
// have no duration).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	sc := s.sc
	fillRandom(sc.SpanID[:])
	c := &Span{
		rec:    s.rec,
		sc:     sc,
		parent: s.sc.SpanIDString(),
		name:   name,
		start:  time.Now(),
	}
	s.rec.mu.Lock()
	s.rec.open++
	s.rec.mu.Unlock()
	return c
}

// SetAttr annotates the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil || s.ended {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// SetStatus records the span's HTTP-shaped status code.
func (s *Span) SetStatus(code int) {
	if s == nil || s.ended {
		return
	}
	s.status = code
}

// Fail records an error on the span; a failed root span makes the
// trace's outcome OutcomeError.
func (s *Span) Fail(err error) {
	if s == nil || s.ended || err == nil {
		return
	}
	s.err = err.Error()
}

// Event records a point-in-time annotation at the current offset into
// the span — failover hops and sticky pins are events, not spans.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil || s.ended {
		return
	}
	s.events = append(s.events, EventData{
		Name:     name,
		OffsetMs: float64(time.Since(s.start)) / float64(time.Millisecond),
		Attrs:    attrMap(attrs),
	})
}

// End completes the span. Ending a child records it into its trace;
// ending the root assembles the trace (root first, children in end
// order) and commits it to the tracer's ring. End is idempotent.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	d := time.Since(s.start)
	rec := s.rec
	data := SpanData{
		Name:         s.name,
		SpanID:       s.sc.SpanIDString(),
		ParentSpanID: s.parent,
		Remote:       s.remote,
		Start:        s.start,
		DurationMs:   float64(d) / float64(time.Millisecond),
		Status:       s.status,
		Error:        s.err,
		Attrs:        attrMap(s.attrs),
		Events:       s.events,
	}
	rec.mu.Lock()
	rec.open--
	if s == rec.root {
		if !rec.ended {
			rec.ended = true
			spans := make([]SpanData, 0, len(rec.done)+1)
			spans = append(spans, data)
			spans = append(spans, rec.done...)
			rec.done = nil
			rec.mu.Unlock()
			outcome := OutcomeOK
			if s.err != "" || s.status >= 400 {
				outcome = OutcomeError
			}
			rec.tracer.push(TraceData{
				TraceID:    s.sc.TraceIDString(),
				Service:    rec.tracer.service,
				Root:       s.name,
				Start:      s.start,
				DurationMs: data.DurationMs,
				Outcome:    outcome,
				Spans:      spans,
			})
			return
		}
		rec.mu.Unlock()
		return
	}
	if !rec.ended {
		rec.done = append(rec.done, data)
	}
	rec.mu.Unlock()
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// push commits one completed trace into the ring.
func (t *Tracer) push(td TraceData) {
	t.mu.Lock()
	t.ring[t.head] = td
	t.head = (t.head + 1) % len(t.ring)
	if t.count < len(t.ring) {
		t.count++
	}
	t.total++
	t.mu.Unlock()
}

// Completed reports how many traces the tracer has ever committed — the
// monotonic counter behind tests and capacity tuning; the ring itself
// keeps only the newest.
func (t *Tracer) Completed() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Snapshot returns up to limit completed traces, newest first, keeping
// only those at least minDur long and (when outcome is non-empty)
// matching the outcome. limit <= 0 means the whole ring. The returned
// slice shares no mutable state with the ring.
func (t *Tracer) Snapshot(minDur time.Duration, outcome string, limit int) []TraceData {
	if t == nil {
		return nil
	}
	minMs := float64(minDur) / float64(time.Millisecond)
	t.mu.Lock()
	defer t.mu.Unlock()
	if limit <= 0 || limit > t.count {
		limit = t.count
	}
	out := make([]TraceData, 0, limit)
	for i := 0; i < t.count && len(out) < limit; i++ {
		td := t.ring[(t.head-1-i+len(t.ring))%len(t.ring)]
		if td.DurationMs < minMs {
			continue
		}
		if outcome != "" && td.Outcome != outcome {
			continue
		}
		out = append(out, td)
	}
	return out
}

// --- Context plumbing ---

type spanKey struct{}
type remoteKey struct{}

// ContextWithSpan returns a context carrying the span; SpanFrom and
// Outgoing recover it downstream.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom returns the context's active span, or nil — and nil is safe
// to use: every Span method no-ops on it.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// ContextWithRemote attaches a bare remote trace context — what a
// client that has no local tracer mints before its first hop, so the
// whole distributed trace still shares one ID.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey{}, sc)
}

// Outgoing resolves the trace context an outbound request should
// propagate: the active local span's, or a remote context attached with
// ContextWithRemote.
func Outgoing(ctx context.Context) (SpanContext, bool) {
	if s := SpanFrom(ctx); s != nil {
		return s.sc, true
	}
	if ctx != nil {
		if sc, ok := ctx.Value(remoteKey{}).(SpanContext); ok {
			return sc, true
		}
	}
	return SpanContext{}, false
}

// --- HTTP surface ---

// Handler serves the tracer's ring as JSON: newest first, filterable
// with ?min_ms=<float> (minimum root duration) and ?outcome=ok|error,
// bounded with ?limit=<n>. Mount it behind the same auth gate as the
// data endpoints and EXCLUDE it from request accounting — scraping
// traces must perturb neither the metrics nor the ring.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusMethodNotAllowed)
			_, _ = io.WriteString(w, `{"error":"GET only"}`+"\n")
			return
		}
		q := r.URL.Query()
		var minDur time.Duration
		if v := q.Get("min_ms"); v != "" {
			ms, err := strconv.ParseFloat(v, 64)
			if err != nil || ms < 0 {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusBadRequest)
				_, _ = io.WriteString(w, `{"error":"min_ms must be a non-negative number"}`+"\n")
				return
			}
			minDur = time.Duration(ms * float64(time.Millisecond))
		}
		outcome := q.Get("outcome")
		if outcome != "" && outcome != OutcomeOK && outcome != OutcomeError {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			_, _ = io.WriteString(w, `{"error":"outcome must be ok or error"}`+"\n")
			return
		}
		limit := 0
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusBadRequest)
				_, _ = io.WriteString(w, `{"error":"limit must be a non-negative integer"}`+"\n")
				return
			}
			limit = n
		}
		traces := t.Snapshot(minDur, outcome, limit)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		_ = enc.Encode(map[string]any{
			"service": t.Service(),
			"count":   len(traces),
			"traces":  traces,
		})
	})
}

// SlowLogger emits one JSON object per line for each request at or over
// its threshold, each carrying the trace ID — the join key between the
// log stream and /v1/traces. A nil *SlowLogger is disabled.
type SlowLogger struct {
	// W receives the log lines (typically os.Stderr).
	W io.Writer
	// Threshold is the minimum request duration to log; zero logs every
	// request (the --slow-ms 0 debug mode).
	Threshold time.Duration

	mu sync.Mutex
}

// Log writes one slow-request line if d meets the threshold. Safe on a
// nil receiver and for concurrent use.
func (l *SlowLogger) Log(service, traceID, method, path string, status int, d time.Duration) {
	if l == nil || l.W == nil || d < l.Threshold {
		return
	}
	line, err := json.Marshal(map[string]any{
		"ts":         time.Now().UTC().Format(time.RFC3339Nano),
		"level":      "warn",
		"msg":        "slow request",
		"service":    service,
		"method":     method,
		"path":       path,
		"status":     status,
		"durationMs": float64(d) / float64(time.Millisecond),
		"traceId":    traceID,
	})
	if err != nil {
		return
	}
	l.mu.Lock()
	_, _ = l.W.Write(append(line, '\n'))
	l.mu.Unlock()
}
