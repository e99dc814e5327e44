// Package fleet is the supervisor tier above internal/collector: one
// daemon fronting N downstream collector members, so submission decoding
// and merging stop serialising behind a single canonical aggregate.
//
// The supervisor speaks the collector's own wire protocol — POST
// /v1/report and /v1/aggregate accept the same framings, GET
// /v1/estimate, /v1/aggregate, /v1/stats and /healthz serve the same
// envelopes — so clients, `damctl submit` and `damctl estimate
// --from-url` point at a supervisor transparently, and supervisors chain
// under bigger supervisors exactly like collectors chain under a
// supervisor. Submissions are routed across the fleet (round-robin or
// consistent hash, failing over past unhealthy members off /healthz),
// and the estimate is decoded from the hierarchical merge of every
// member's canonical aggregate, pulled as DPA2 blobs.
//
// The collector's headline invariant carries over one level up: because
// fo.Aggregate.Merge is associative and commutative over exactly
// representable counts, the fleet-merged aggregate — and therefore the
// cold first decode — is byte-identical to EstimateFromAggregate on the
// union of all shards, for any member count, routing policy, and arrival
// interleaving. Later decodes warm-start from the previous estimate on
// the merge cadence, like a single collector's.
//
// One pipeline is enforced fleet-wide with the collector's transactional
// adopt-from-first-submission semantics: pre-adoption submissions are
// serialised, the candidate mechanism is only committed after a member
// accepted the shard, and the supervisor injects the pinned pipeline
// metadata into forwarded submissions so every member — whichever one
// routing picks, even a freshly started one — adopts the same pipeline.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"dpspatial/internal/collector"
	"dpspatial/internal/durable"
	"dpspatial/internal/metrics"
	"dpspatial/internal/trace"
)

// Config configures a fleet supervisor.
type Config struct {
	// Members are the base URLs of the downstream collectors, e.g.
	// "http://10.0.0.1:8080". At least one is required.
	Members []string
	// Mechanism, if non-nil, locks the fleet to this estimator from the
	// start; Pipeline must then carry its metadata, which the supervisor
	// injects into forwarded submissions so members adopt it too.
	Mechanism collector.Estimator
	// Pipeline is the fleet-wide pinned pipeline metadata. Required with
	// Mechanism; ignored with Build (the pin comes from the first
	// accepted submission instead).
	Pipeline *collector.Pipeline
	// Build, if set and Mechanism is nil, lets the supervisor adopt the
	// fleet's mechanism from the first accepted submission that carries
	// pipeline metadata. Until then, submissions without metadata are
	// rejected with 409.
	Build func(p *collector.Pipeline) (collector.Estimator, error)
	// Policy picks the routing policy: PolicyRoundRobin (default) or
	// PolicyHash.
	Policy string
	// Cadence is the background period of the member health probes and
	// the hierarchical merge + warm re-estimate. Zero disables the loop;
	// GET /v1/estimate still pulls and re-decodes on demand.
	Cadence time.Duration
	// AuthToken, when non-empty, is the fleet's shared secret: the
	// supervisor requires it as a bearer token on every endpoint except
	// GET /healthz, and presents it to members, which run with the same
	// --auth-token.
	AuthToken string
	// MaxBodyBytes caps accepted request bodies (default 64 MiB).
	MaxBodyBytes int64
	// HTTPClient is used for member requests (default
	// http.DefaultClient).
	HTTPClient *http.Client
	// DisableMetrics leaves GET /metrics unrouted (404). The supervisor
	// still accounts internally; only the exposition endpoint is gated.
	DisableMetrics bool
	// DisableTraces turns request tracing off entirely: no spans are
	// recorded and GET /v1/traces is unrouted (404).
	DisableTraces bool
	// TraceCapacity bounds the completed-trace ring GET /v1/traces
	// serves (0 = trace.DefaultCapacity).
	TraceCapacity int
	// SlowLog, when non-nil, emits one structured log line (carrying
	// the trace ID) per request at or over its threshold.
	SlowLog *trace.SlowLogger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ behind the
	// bearer gate, excluded from accounting and tracing. Off by default.
	EnablePprof bool
}

// Supervisor is the fleet daemon. It implements http.Handler; run it
// under any http.Server, and call Start/Close around the serving
// lifetime to run the probe + merge cadence loop.
type Supervisor struct {
	cfg Config
	// engine serves the read path (estimate and query caches, decode
	// spans and metrics, the probe + decode cadence loop) over
	// mergedState, and wraps every handler in the bearer gate,
	// accounting and tracing.
	engine  *collector.Engine
	members []*member
	router  router

	// adoptMu serialises submissions that arrive before a mechanism is
	// pinned, making fleet-wide adoption transactional: one candidate in
	// flight at a time, committed only after a member accepted its
	// shard, so a rejected first submission can never lock the fleet —
	// or any member — to its pipeline.
	adoptMu sync.Mutex

	// mu guards the mutable supervisor state; never held across network
	// calls or EM decodes.
	mu       sync.Mutex
	mech     collector.Estimator
	pipeline *collector.Pipeline
	stats    Stats
	acks     *collector.AckLog  // idempotency log: submission ID → ack
	inflight map[string]bool    // submission IDs currently being forwarded
	sticky   map[string]*member // unknown-state submissions pinned to the member that may hold them

	// met is the engine's shared instrument set; fleetFailovers the
	// fleet-only counter registerFleetMetrics adds.
	met            *collector.ServiceMetrics
	fleetFailovers *metrics.Counter
}

// New builds a supervisor over the configured members.
func New(cfg Config) (*Supervisor, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("fleet: config needs at least one member URL")
	}
	if cfg.Mechanism == nil && cfg.Build == nil {
		return nil, fmt.Errorf("fleet: config needs a Mechanism or a Build hook")
	}
	if cfg.Mechanism != nil && cfg.Pipeline == nil {
		return nil, fmt.Errorf("fleet: a pre-built Mechanism needs its Pipeline metadata (members adopt from it)")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = collector.DefaultMaxBodyBytes
	}
	s := &Supervisor{
		cfg:      cfg,
		acks:     collector.NewAckLog(collector.DedupWindow),
		inflight: make(map[string]bool),
		sticky:   make(map[string]*member),
	}
	s.engine = collector.NewEngine(collector.EngineConfig{
		Tier: "fleet", Service: "supervisor",
		Source:      s.mergedState,
		ErrorStatus: pullErrorStatus,
		Routes: map[string]http.HandlerFunc{
			"/healthz":      collector.MethodOnly(http.MethodGet, s.handleHealthz),
			"/v1/report":    collector.MethodOnly(http.MethodPost, s.handleReport),
			"/v1/aggregate": s.handleAggregate,
			"/v1/stats":     collector.MethodOnly(http.MethodGet, s.handleStats),
		},
		Cadence:        cfg.Cadence,
		OnTick:         s.probeMembers,
		AuthToken:      cfg.AuthToken,
		DisableMetrics: cfg.DisableMetrics,
		DisableTraces:  cfg.DisableTraces,
		TraceCapacity:  cfg.TraceCapacity,
		SlowLog:        cfg.SlowLog,
		EnablePprof:    cfg.EnablePprof,
	})
	s.met = s.engine.Instruments()
	seen := make(map[string]bool, len(cfg.Members))
	for _, url := range cfg.Members {
		m := newMember(url, cfg.AuthToken, cfg.HTTPClient)
		if seen[m.url] {
			return nil, fmt.Errorf("fleet: duplicate member %s", m.url)
		}
		seen[m.url] = true
		s.members = append(s.members, m)
	}
	r, err := newRouter(cfg.Policy, s.members)
	if err != nil {
		return nil, err
	}
	s.router = r
	if cfg.Mechanism != nil {
		s.mech = cfg.Mechanism
		pin := *cfg.Pipeline
		s.pipeline = &pin
		s.stats.Scheme = s.mech.Scheme()
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyRoundRobin
	}
	s.stats.Policy = cfg.Policy
	s.stats.CadenceMillis = cfg.Cadence.Milliseconds()
	s.registerFleetMetrics()
	return s, nil
}

// Tracer exposes the supervisor's completed-trace ring — nil when the
// supervisor was built with DisableTraces.
func (s *Supervisor) Tracer() *trace.Tracer { return s.engine.Tracer() }

// ServeHTTP implements http.Handler.
func (s *Supervisor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.engine.ServeHTTP(w, r)
}

// Start launches the background cadence loop: probe every member's
// /healthz, then pull and warm-decode the fleet estimate. No-op when
// the configured cadence is zero.
func (s *Supervisor) Start() { s.engine.Start() }

// Close stops the cadence loop. The handler stays usable.
func (s *Supervisor) Close() { s.engine.Close() }

// handleReport routes a report stream (the collector's POST /v1/report
// framing) to one fleet member. A stream of bare report lines gets the
// pinned pipeline header injected, so routing never depends on which
// member happens to hold a mechanism already.
func (s *Supervisor) handleReport(w http.ResponseWriter, r *http.Request) {
	if prev, ok := s.replayedAck(r); ok {
		collector.WriteJSON(w, http.StatusOK, &prev)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		collector.WriteError(w, http.StatusBadRequest, fmt.Errorf("reading body: %v", err))
		return
	}
	first := body
	if i := bytes.IndexByte(body, '\n'); i >= 0 {
		first = body[:i]
	}
	hdr, _, err := collector.ParseStreamHead(first)
	if err != nil {
		collector.WriteError(w, http.StatusBadRequest, err)
		return
	}
	s.routeSubmission(w, r, collector.ShardReport, body, hdr)
}

// handleAggregate routes a DPA1/DPA2 blob submission (POST) or serves
// the hierarchically merged fleet aggregate (GET, DPA2 blob — the
// chaining primitive for stacking supervisors).
func (s *Supervisor) handleAggregate(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
	case http.MethodGet:
		s.serveAggregate(w, r)
		return
	default:
		collector.WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET or POST only"))
		return
	}
	if prev, ok := s.replayedAck(r); ok {
		collector.WriteJSON(w, http.StatusOK, &prev)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		collector.WriteError(w, http.StatusBadRequest, fmt.Errorf("reading body: %v", err))
		return
	}
	if !bytes.HasPrefix(body, []byte("DPA")) {
		collector.WriteError(w, http.StatusBadRequest, fmt.Errorf("fo: not a binary aggregate (bad magic)"))
		return
	}
	var hdr *collector.Pipeline
	if raw := r.Header.Get(collector.PipelineHeader); raw != "" {
		hdr = &collector.Pipeline{}
		if err := json.Unmarshal([]byte(raw), hdr); err != nil {
			collector.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad %s header: %v", collector.PipelineHeader, err))
			return
		}
	}
	s.routeSubmission(w, r, collector.ShardAggregate, body, hdr)
}

// routeSubmission validates a parsed submission against the fleet
// pipeline (building a candidate mechanism on first contact), forwards
// it to a member with failover, and commits the routing counters — and,
// for a first submission, the fleet-wide adoption — only after a member
// accepted the shard. Submissions are keyed by an idempotency ID:
// client-supplied, or minted here and echoed back in the
// X-Dpspatial-Submission-Id response header (including on the 503 for
// an unknown-state failure), so any client that replays the echoed ID
// gets exactly-once semantics. A replayed ID answers with the original
// ack, and an ID whose first attempt died mid-response stays pinned to
// the member that may have merged it; a retry WITHOUT the ID cannot be
// recognised as a replay and may merge again — the Client and damctl
// always send one.
func (s *Supervisor) routeSubmission(w http.ResponseWriter, r *http.Request, kind collector.ShardKind, body []byte, hdr *collector.Pipeline) {
	span := trace.SpanFrom(r.Context())
	id := r.Header.Get(collector.SubmissionIDHeader)
	if id == "" {
		id = collector.NewSubmissionID()
	}
	span.SetAttr(trace.String("submissionId", id), trace.String("shardKind", kind.String()))
	w.Header().Set(collector.SubmissionIDHeader, id)
	// Reserve the ID before forwarding: a concurrent submission with
	// the same ID would otherwise also miss the ack log and be routed —
	// possibly to a different member — merging the shard twice. The
	// loser is told to retry; by then the winner's ack is in the log.
	s.mu.Lock()
	if prev, ok := s.acks.Get(id); ok {
		s.stats.Duplicates++
		s.met.Submissions.With(collector.SubmissionDuplicate).Inc()
		s.mu.Unlock()
		span.Event("duplicate.replay", trace.String("originalTraceId", prev.TraceID))
		collector.WriteJSON(w, http.StatusOK, &prev)
		return
	}
	if s.inflight[id] {
		s.mu.Unlock()
		// The concurrent attempt's outcome is undetermined, so mark the
		// refusal for any supervisor one tier up.
		w.Header().Set(collector.SubmissionStateHeader, collector.SubmissionStateUnknown)
		span.Event("inflight.conflict")
		collector.WriteError(w, http.StatusServiceUnavailable,
			fmt.Errorf("a submission with this ID is already in flight; retry to collect its ack"))
		return
	}
	s.inflight[id] = true
	locked := s.mech != nil
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.inflight, id)
		s.mu.Unlock()
	}()
	if !locked {
		// Serialise pre-adoption traffic; a concurrent submission may
		// have pinned the fleet while we waited for the lock.
		s.adoptMu.Lock()
		defer s.adoptMu.Unlock()
	}
	s.mu.Lock()
	installed, pipeline := s.mech, s.pipeline
	s.mu.Unlock()
	// Refusals happen here rather than burning a round trip to a member.
	mech, adopted, err := collector.ResolveMechanism("fleet", installed, pipeline, hdr, s.cfg.Build)
	if err != nil {
		collector.WriteError(w, http.StatusConflict, err)
		return
	}
	if adopted {
		pin := *hdr
		pipeline = &pin
	}

	// Inject the fleet pipeline into payloads that don't carry metadata,
	// so whichever member routing picks — even one that started bare —
	// can adopt and cross-check the shard.
	forwardBody, forwardHdr := body, hdr
	if hdr == nil && pipeline != nil {
		if kind == collector.ShardAggregate {
			forwardHdr = pipeline
		} else {
			line, err := marshalHeaderLine(pipeline)
			if err != nil {
				collector.WriteError(w, http.StatusInternalServerError, err)
				return
			}
			forwardBody = append(line, body...)
		}
	}

	resp, m, status, err := s.forward(r.Context(), kind, forwardBody, forwardHdr, body, id)
	if err != nil {
		if errors.As(err, new(*unknownStateError)) {
			w.Header().Set(collector.SubmissionStateHeader, collector.SubmissionStateUnknown)
		}
		collector.WriteError(w, status, err)
		return
	}

	s.mu.Lock()
	if adopted && s.mech == nil {
		s.mech = mech
		s.pipeline = pipeline
		s.stats.Scheme = mech.Scheme()
	}
	// A Duplicate ack with a sticky pin on this member is the lost-ack
	// case: the member merged the shard on the aborted first attempt
	// and this replay recovered the ack — the routing was never
	// counted, so count it now. A Duplicate without a pin is a genuine
	// replay of an already-acked submission and counts nothing.
	recovered := resp.Duplicate && s.sticky[id] == m
	if resp.Duplicate {
		s.stats.Duplicates++
		s.met.Submissions.With(collector.SubmissionDuplicate).Inc()
	}
	if !resp.Duplicate || recovered {
		s.stats.Routed++
		s.met.Submissions.With(collector.SubmissionAccepted).Inc()
		if kind == collector.ShardReport {
			s.stats.ReportShards++
		} else {
			s.stats.AggregateShards++
		}
		resp.Generation = s.stats.Routed
		m.countRouted()
	}
	if resp.Reports > 0 {
		// The ack proves the member holds reports now: latch it, so a
		// later empty or unreachable answer is recognised as data loss.
		m.noteNonEmpty()
	}
	resp.Member = m.url
	// The member echoes the shared trace ID when it traces; when it does
	// not (tracing disabled downstream), stamp the supervisor's own so
	// the client always gets a usable /v1/traces key.
	if tid := span.TraceID(); tid != "" && resp.TraceID == "" {
		resp.TraceID = tid
	}
	s.acks.Put(id, *resp)
	delete(s.sticky, id)
	s.mu.Unlock()
	collector.WriteJSON(w, http.StatusOK, resp)
}

// marshalHeaderLine renders the pinned pipeline as a reports-framing
// header line.
func marshalHeaderLine(p *collector.Pipeline) ([]byte, error) {
	hdr := *p
	hdr.Format = collector.ReportsFormat
	line, err := json.Marshal(&hdr)
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// forward tries members in the router's preference order — healthy ones
// first, then (as a last-ditch revival pass) any member not yet tried
// in this call, so a recovered member rejoins without waiting for a
// probe and a member that just failed is not immediately re-tried.
//
// Failover is only safe when the shard provably did not merge at the
// attempted member, so each outcome is classified:
//
//   - 400/409: the member understood the submission and refused it —
//     every member enforcing the same pinned pipeline would; final.
//   - any other 4xx (401 from a misconfigured token, a proxy 404), or
//     a 5xx carrying the collector's JSON error envelope: the member's
//     stack answered before merging — a member-local problem; mark
//     unhealthy and fail over.
//   - dial-phase transport failure: the request never reached the
//     member; mark unhealthy and fail over.
//   - anything else — a reset or truncated response after sending, or
//     an envelope-less 5xx (a reverse proxy's 502/504 can arrive AFTER
//     the member behind it merged): the member MAY hold the shard.
//     Failing over would risk a double merge, so the submission ID is
//     pinned to this member and the client told to retry — the replay
//     routes back here and the member's idempotency log answers
//     exactly once.
//
// routeBody is the submission as the client sent it (before any header
// injection), so the hash policy keys on the client's bytes.
func (s *Supervisor) forward(ctx context.Context, kind collector.ShardKind, body []byte, hdr *collector.Pipeline, routeBody []byte, id string) (*collector.SubmitResponse, *member, int, error) {
	span := trace.SpanFrom(ctx)
	s.mu.Lock()
	pinned := s.sticky[id]
	s.mu.Unlock()
	order := s.router.order(routeBody)
	if pinned != nil {
		// An earlier attempt of this ID died mid-response at pinned:
		// only it may answer, or the shard could merge twice.
		order = []*member{pinned}
		span.Event("sticky.replay", trace.String("member", pinned.url))
	}
	var lastErr error
	tried := make(map[*member]bool, len(order))
	for pass := 0; pass < 2; pass++ {
		for _, m := range order {
			if tried[m] || (pass == 0 && !m.isHealthy()) {
				continue
			}
			tried[m] = true
			// Each routed attempt is its own child span, and the member
			// call runs under it — so the traceparent the member joins
			// names THIS attempt as the remote parent, and a member's
			// /v1/traces entry nests under the exact hop that produced it.
			attempt := span.Child("fleet.route.attempt")
			attempt.SetAttr(trace.String("member", m.url))
			actx := trace.ContextWithSpan(ctx, attempt)
			var resp *collector.SubmitResponse
			var err error
			if kind == collector.ShardReport {
				resp, err = m.client.SubmitReportStreamWithID(actx, bytes.NewReader(body), id)
			} else {
				resp, err = m.client.SubmitAggregateBlobWithID(actx, body, hdr, id)
			}
			if err == nil {
				attempt.End()
				m.markHealthy()
				return resp, m, 0, nil
			}
			attempt.Fail(err)
			attempt.End()
			if ctx.Err() != nil {
				// The caller went away mid-attempt; that says nothing
				// about the member's health. Its handler may still
				// finish processing the in-flight body, so pin the ID
				// to it — a retry of the same ID must route back here.
				s.pinSticky(id, m)
				span.Event("sticky.pin", trace.String("member", m.url), trace.String("reason", "request cancelled mid-attempt"))
				return nil, m, http.StatusServiceUnavailable, &unknownStateError{
					fmt.Errorf("request cancelled while member %s was processing; retry with the same submission ID", m.url)}
			}
			var se *collector.StatusError
			switch {
			case errors.As(err, &se) && se.SubmissionStateUnknown:
				// The member is itself a supervisor (tiers stack) and
				// says the shard may already be merged below it:
				// failing over would risk a double merge.
				m.markUnhealthy(err)
				s.pinSticky(id, m)
				span.Event("sticky.pin", trace.String("member", m.url), trace.String("reason", "member reports unknown submission state"))
				return nil, m, http.StatusServiceUnavailable, &unknownStateError{
					fmt.Errorf("member %s reports this submission's state as unknown; retry with the same submission ID", m.url)}
			case errors.As(err, &se) && (se.StatusCode == http.StatusBadRequest || se.StatusCode == http.StatusConflict):
				// The member's submission handler runs its replay check
				// before any validation, so a 400/409 proves this ID
				// never merged there — any sticky pin is resolved.
				s.mu.Lock()
				delete(s.sticky, id)
				s.mu.Unlock()
				return nil, m, se.StatusCode, fmt.Errorf("member %s: %v", m.url, memberMessage(se))
			case errors.As(err, &se) && (se.StatusCode < 500 || se.Message != ""),
				collector.RequestNotSent(err):
				// The member's own stack answered non-2xx before any
				// merge (4xx, or a 5xx with the collector's error
				// envelope and no unknown-state mark), or the request
				// never reached it: safe to try the next one.
				m.markUnhealthy(err)
				m.countFailover()
				s.mu.Lock()
				s.stats.Failovers++
				s.mu.Unlock()
				s.fleetFailovers.Inc()
				span.Event("failover", trace.String("member", m.url), trace.String("error", err.Error()))
				lastErr = err
			default:
				m.markUnhealthy(err)
				s.pinSticky(id, m)
				span.Event("sticky.pin", trace.String("member", m.url), trace.String("reason", "answer lost after send"))
				return nil, m, http.StatusServiceUnavailable, &unknownStateError{
					fmt.Errorf("member %s may hold this submission but its answer was lost (%v); retry with the same submission ID", m.url, err)}
			}
		}
	}
	if pinned != nil {
		// The pinned member could not answer this retry, so the
		// original attempt's merge state is STILL unknown — a stacked
		// supervisor above must not read this 503 as safe to fail over.
		return nil, pinned, http.StatusServiceUnavailable, &unknownStateError{
			fmt.Errorf("pinned member %s is unreachable and may hold this submission (%v); retry with the same submission ID", pinned.url, lastErr)}
	}
	return nil, nil, http.StatusServiceUnavailable,
		fmt.Errorf("no fleet member accepted the %s submission: %v", kind, lastErr)
}

// unknownStateError marks a refusal whose submission may still have
// merged somewhere below; routeSubmission translates it into the
// X-Dpspatial-Submission-State response header so supervisors stack
// without losing the distinction.
type unknownStateError struct{ err error }

func (e *unknownStateError) Error() string { return e.err.Error() }
func (e *unknownStateError) Unwrap() error { return e.err }

// replayedAck answers a replayed submission ID from the ack log before
// the body is read — a retried max-size shard then costs a header, not
// a 64 MiB upload. routeSubmission re-checks under the in-flight
// reservation, which remains the authoritative gate.
func (s *Supervisor) replayedAck(r *http.Request) (collector.SubmitResponse, bool) {
	id := r.Header.Get(collector.SubmissionIDHeader)
	if id == "" {
		return collector.SubmitResponse{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, ok := s.acks.Get(id)
	if ok {
		s.stats.Duplicates++
		s.met.Submissions.With(collector.SubmissionDuplicate).Inc()
		span := trace.SpanFrom(r.Context())
		span.SetAttr(trace.String("submissionId", id))
		span.Event("duplicate.replay", trace.String("originalTraceId", prev.TraceID))
	}
	return prev, ok
}

// pinSticky records that the only member allowed to answer a retry of
// this submission ID is m — it may already hold the shard. The pin
// table is bounded like the ack log; dropping an arbitrary stale pin
// trades a theoretical replay hazard for a hard memory cap.
func (s *Supervisor) pinSticky(id string, m *member) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sticky) >= collector.DedupWindow {
		for stale := range s.sticky {
			delete(s.sticky, stale)
			break
		}
	}
	s.sticky[id] = m
}

// memberMessage renders a member's refusal for the client, falling back
// to the full error when the member sent no JSON body.
func memberMessage(se *collector.StatusError) string {
	if se.Message != "" {
		return se.Message
	}
	return se.Error()
}

// probeMembers updates every member's health flag off its /healthz.
func (s *Supervisor) probeMembers(ctx context.Context) {
	var wg sync.WaitGroup
	for _, m := range s.members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			m.probe(ctx)
		}(m)
	}
	wg.Wait()
}

func (s *Supervisor) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	scheme := s.stats.Scheme
	s.mu.Unlock()
	healthy := 0
	for _, m := range s.members {
		if m.isHealthy() {
			healthy++
		}
	}
	collector.WriteJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "role": "supervisor", "scheme": scheme,
		"members": len(s.members), "healthy": healthy,
	})
}

// serveAggregate serves the fleet-merged aggregate as a DPA2 blob, with
// the pinned pipeline in the response header — byte-compatible with a
// collector's GET /v1/aggregate, so supervisors stack.
func (s *Supervisor) serveAggregate(w http.ResponseWriter, r *http.Request) {
	merged, _, err := s.pullMerged(r.Context())
	if err != nil {
		collector.WriteError(w, pullErrorStatus(err), err)
		return
	}
	blob, err := merged.MarshalBinary()
	if err != nil {
		collector.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	s.mu.Lock()
	pipeline := s.pipeline
	s.mu.Unlock()
	if pipeline != nil {
		hdr, _ := json.Marshal(pipeline)
		w.Header().Set(collector.PipelineHeader, string(hdr))
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}

func (s *Supervisor) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	stats := s.stats
	s.mu.Unlock()
	stats.Generation = stats.Routed
	stats.DecodeCounters, _ = s.engine.DecodeStats()
	stats.Members = s.memberStats(r.Context())
	for _, m := range stats.Members {
		stats.Reports += m.Reports
	}
	collector.WriteJSON(w, http.StatusOK, &stats)
}

// memberStats snapshots the supervisor-side counters for every member
// and enriches them with the member's own live /v1/stats (generation,
// absorbed reports) when it answers within the probe timeout.
func (s *Supervisor) memberStats(ctx context.Context) []MemberStats {
	out := make([]MemberStats, len(s.members))
	var wg sync.WaitGroup
	for i, m := range s.members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			out[i] = m.snapshot()
			cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			if ms, err := m.client.Stats(cctx); err == nil {
				out[i].Generation = ms.Generation
				out[i].Reports = ms.Reports
				out[i].Durability = ms.Durability
				if ms.Reports > 0 {
					m.noteNonEmpty()
				}
			}
		}(i, m)
	}
	wg.Wait()
	return out
}

// Stats is the JSON body of the supervisor's GET /v1/stats. The
// generation / reports / scheme keys mirror a collector's stats
// envelope, so collector.Client.Stats pointed at a supervisor decodes
// the fleet-level view of the same counters.
type Stats struct {
	// Scheme is empty until the fleet adopts a mechanism.
	Scheme string `json:"scheme"`
	// Policy is the routing policy in force.
	Policy string `json:"policy"`
	// Routed counts submissions accepted by a member via this
	// supervisor; ReportShards / AggregateShards split it by framing.
	// Generation mirrors Routed under the collector stats key.
	Routed          uint64 `json:"routed"`
	Generation      uint64 `json:"generation"`
	ReportShards    uint64 `json:"reportShards"`
	AggregateShards uint64 `json:"aggregateShards"`
	// Reports sums the report counts the answering members currently
	// hold — the fleet-wide absorbed total when every member answers.
	Reports float64 `json:"reports"`
	// Failovers counts member attempts that failed transiently and made
	// a submission move on to the next member in routing order.
	Failovers uint64 `json:"failovers"`
	// Duplicates counts replayed submission IDs answered from an
	// idempotency log (the supervisor's or a member's) without merging.
	Duplicates uint64 `json:"duplicates,omitempty"`
	// DecodeCounters is the fleet-decode accounting (cold/warm decodes,
	// iterations saved), shared with the collector's stats.
	collector.DecodeCounters
	// CadenceMillis is the configured probe + merge cadence (0 = pull
	// only on demand).
	CadenceMillis int64 `json:"cadenceMillis"`
	// Members reports per-member health and counters, in fleet order.
	Members []MemberStats `json:"members,omitempty"`
}

// MemberStats is one fleet member's entry in the supervisor stats.
type MemberStats struct {
	// URL is the member's base URL.
	URL string `json:"url"`
	// Healthy is the supervisor's last-known liveness of the member.
	Healthy bool `json:"healthy"`
	// LastError is the most recent transient failure, empty when
	// healthy.
	LastError string `json:"lastError,omitempty"`
	// Routed counts submissions this supervisor routed to the member and
	// the member accepted; Failovers counts submissions that failed here
	// transiently and moved on.
	Routed    uint64 `json:"routed"`
	Failovers uint64 `json:"failovers"`
	// Recoveries counts the member's unhealthy→healthy transitions — how
	// many outages it has rejoined the fleet from.
	Recoveries uint64 `json:"recoveries,omitempty"`
	// Generation and Reports mirror the member's own /v1/stats at the
	// time of the query (zero when the member did not answer).
	Generation uint64  `json:"generation"`
	Reports    float64 `json:"reports"`
	// Durability relays the member's own snapshot/WAL counters when it
	// runs with a durable store (nil for in-memory members or when the
	// member did not answer the stats probe).
	Durability *durable.Stats `json:"durability,omitempty"`
}
