// Package fleet is the supervisor tier above internal/collector: one
// daemon fronting N downstream collector members, so submission decoding
// and merging stop serialising behind a single canonical aggregate.
//
// The supervisor speaks the collector's own wire protocol — POST
// /v1/report and /v1/aggregate accept the same framings, GET
// /v1/estimate, /v1/aggregate and /healthz serve the same envelopes, and
// GET /v1/stats serves the collector's plus the routing counters and
// the members — so clients, `damctl submit` and `damctl estimate
// --from-url` point at a supervisor transparently, and supervisors chain
// under bigger supervisors exactly like collectors chain under a
// supervisor. Both tiers serve through collector.Engine: its submit path
// reads, parses and answers every submission, and the supervisor's only
// step is the commit that forwards the client's bytes to one member.
// Submissions are routed across the fleet round-robin, failing over past
// members that refuse or cannot be reached, and the estimate is decoded
// from the hierarchical merge of every member's canonical aggregate,
// pulled as DPA2 blobs. Those forwards and pulls are also the only
// exchanges that set a member's health.
//
// The collector's headline invariant carries over one level up: because
// fo.Aggregate.Merge is associative and commutative over exactly
// representable counts, the fleet-merged aggregate — and therefore the
// cold first decode — is byte-identical to EstimateFromAggregate on the
// union of all shards, for any member count, any assignment of shards to
// members, and any arrival interleaving. Later decodes warm-start from
// the previous estimate on the merge cadence, like a single collector's.
//
// One pipeline is enforced fleet-wide by the collector's rule: the
// shared Engine holds the supervisor's mechanism and its pin, set once —
// from Config, or adopted from the first accepted submission — and
// checks every submission's metadata against the pin and every blob
// against the mechanism before anything is forwarded. Adoption is
// transactional: pre-adoption submissions are serialised, the candidate
// mechanism is only adopted after a member accepted the shard, and the
// supervisor injects the pin into forwarded submissions so every member
// — whichever one routing picks, even a freshly started one — adopts
// the same pipeline.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dpspatial/internal/collector"
	"dpspatial/internal/durable"
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
	// Cadence is the background period of the hierarchical merge + warm
	// re-estimate; once the fleet adopted a mechanism, each tick's pull
	// also refreshes every member's health. Zero disables the loop; GET
	// /v1/estimate still pulls and re-decodes on demand.
	Cadence time.Duration
	// AuthToken, when non-empty, is the fleet's shared secret: the
	// supervisor requires it as a bearer token on every endpoint except
	// GET /healthz, and presents it to members, which run with the same
	// --auth-token.
	AuthToken string
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
// lifetime to run the merge cadence loop.
type Supervisor struct {
	// engine serves the read path (estimate and query caches, decode
	// spans and metrics, the pull + decode cadence loop) over
	// mergedState, and wraps every handler in the bearer gate,
	// accounting and tracing.
	engine  *collector.Engine
	members []*member
	// next is the round-robin counter: submission k prefers member
	// k mod len(members).
	next atomic.Uint64

	// adoptMu serialises submissions that arrive before the fleet adopted
	// a mechanism, making fleet-wide adoption transactional: one
	// candidate in flight at a time, adopted only after a member accepted
	// its shard, so a rejected first submission can never lock the fleet
	// — or any member — to its pipeline.
	adoptMu sync.Mutex

	// mu guards the mutable supervisor state; never held across network
	// calls or EM decodes. stats holds the routing and shard counters.
	mu       sync.Mutex
	stats    Stats
	acks     *collector.AckLog  // idempotency log: submission ID → ack
	inflight map[string]bool    // submission IDs currently being forwarded
	sticky   map[string]*member // unknown-state submissions pinned to the member that may hold them

	// met is the engine's shared instrument set.
	met *collector.ServiceMetrics
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
	s := &Supervisor{
		acks:     collector.NewAckLog(collector.DedupWindow),
		inflight: make(map[string]bool),
		sticky:   make(map[string]*member),
	}
	s.engine = collector.NewEngine(collector.EngineConfig{
		Tier: "fleet", Service: "supervisor",
		Mechanism:   cfg.Mechanism,
		Pipeline:    cfg.Pipeline,
		Build:       cfg.Build,
		Source:      s.mergedState,
		ErrorStatus: pullErrorStatus,
		Replay:      s.replay,
		Commit:      s.commit,
		Aggregate:   s.mergedBlob,
		Routes: map[string]http.HandlerFunc{
			"/v1/stats": collector.MethodOnly(http.MethodGet, s.handleStats),
		},
		Cadence:       cfg.Cadence,
		AuthToken:     cfg.AuthToken,
		DisableTraces: cfg.DisableTraces,
		TraceCapacity: cfg.TraceCapacity,
		SlowLog:       cfg.SlowLog,
		EnablePprof:   cfg.EnablePprof,
	})
	s.met = s.engine.Instruments()
	members, err := newMembers(s.engine.Registry(), cfg.Members, cfg.AuthToken)
	if err != nil {
		return nil, err
	}
	s.members = members
	s.registerFleetMetrics()
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Supervisor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.engine.ServeHTTP(w, r)
}

// Start launches the background cadence loop: once the fleet adopted a
// mechanism, each tick pulls every member, refreshing its health, and
// warm-decodes the fleet estimate when the merged state moved. No-op
// when the configured cadence is zero.
func (s *Supervisor) Start() { s.engine.Start() }

// Close stops the cadence loop. The handler stays usable.
func (s *Supervisor) Close() { s.engine.Close() }

// commit is the supervisor's step of the Engine's submit path. It
// validates a parsed submission against the fleet pipeline (building a
// candidate mechanism on first contact) and a blob against the
// mechanism, forwards the client's bytes to a member with failover, and
// commits the routing counters — and, for a first submission, the
// fleet-wide adoption — only after a member accepted the shard. The
// submission ID is the idempotency key: a replayed ID answers with the
// original ack, and an ID whose first attempt died mid-response stays
// pinned to the member that may have merged it. A retry under a fresh
// ID cannot be recognised as a replay and may merge again; the Client
// and damctl reuse the ID, and the Engine echoes the one it minted.
func (s *Supervisor) commit(ctx context.Context, sub *collector.Submission) (collector.SubmitResponse, error) {
	// Failover resends these exact bytes, so the stream is read whole.
	body, err := sub.Body()
	if err != nil {
		return collector.SubmitResponse{}, err
	}
	span := trace.SpanFrom(ctx)
	id := sub.ID
	// Reserve the ID before forwarding: a concurrent submission with
	// the same ID would otherwise also miss the ack log and be routed —
	// possibly to a different member — merging the shard twice. The
	// loser is told to retry; by then the winner's ack is in the log.
	s.mu.Lock()
	if prev, ok := s.replayLocked(span, id); ok {
		s.mu.Unlock()
		return prev, nil
	}
	if s.inflight[id] {
		s.mu.Unlock()
		// The concurrent attempt's outcome is undetermined, so mark the
		// refusal for any supervisor one tier up.
		span.Event("inflight.conflict")
		return collector.SubmitResponse{}, unknownState("a submission with this ID is already in flight; retry to collect its ack")
	}
	s.inflight[id] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.inflight, id)
		s.mu.Unlock()
	}()
	if mech, _ := s.engine.Identity(); mech == nil {
		// Serialise pre-adoption traffic; a concurrent submission may
		// have adopted while we waited for the lock.
		s.adoptMu.Lock()
		defer s.adoptMu.Unlock()
	}
	// Refusals happen here rather than burning a round trip to a member.
	mech, candidate, err := s.engine.Resolve(sub.Pipeline)
	if err == nil && sub.Shard != nil {
		err = sub.Shard.Compatible(mech)
	}
	if err != nil {
		return collector.SubmitResponse{}, err
	}

	// Inject the fleet pin into payloads that don't carry metadata, so
	// whichever member routing picks — even one that started bare — can
	// adopt and cross-check the shard. Such a payload resolved, so the
	// fleet has a pin.
	forwardBody, forwardHdr := body, sub.Pipeline
	if forwardHdr == nil {
		_, forwardHdr = s.engine.Identity()
		if sub.Kind == collector.ShardReport {
			line, err := marshalHeaderLine(forwardHdr)
			if err != nil {
				return collector.SubmitResponse{}, &collector.Refusal{Status: http.StatusInternalServerError, Err: err}
			}
			forwardBody = append(line, body...)
		}
	}

	resp, m, err := s.forward(ctx, sub.Kind, forwardBody, forwardHdr, id)
	if err != nil {
		return collector.SubmitResponse{}, err
	}
	if candidate {
		// adoptMu is held, so nothing adopted since Resolve: this
		// installs the candidate and cannot fail.
		_ = s.engine.Adopt(mech, sub.Pipeline)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// A Duplicate ack with a sticky pin on this member is the lost-ack
	// case: the member merged the shard on the aborted first attempt
	// and this replay recovered the ack — the routing was never
	// counted, so count it now. A Duplicate without a pin is a genuine
	// replay of an already-acked submission and counts nothing.
	recovered := resp.Duplicate && s.sticky[id] == m
	if resp.Duplicate {
		s.stats.DuplicateShards++
		s.met.Submissions.With(collector.SubmissionDuplicate).Inc()
	}
	if !resp.Duplicate || recovered {
		s.stats.Routed++
		s.met.Submissions.With(collector.SubmissionAccepted).Inc()
		sub.Kind.Count(&s.stats.Stats)
		resp.Generation = s.stats.Routed
		m.routed.Inc()
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
	// Marshal fails only on a NaN or infinite float, and every float in
	// resp came out of the member's JSON ack.
	ack, _ := json.Marshal(resp)
	s.acks.Put(id, ack)
	delete(s.sticky, id)
	return *resp, nil
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

// order returns every member, most-preferred first: the preferred
// member rotates one place per submission, and the rest follow in fleet
// order as the failover sequence.
func (s *Supervisor) order() []*member {
	start := int((s.next.Add(1) - 1) % uint64(len(s.members)))
	out := make([]*member, 0, len(s.members))
	for i := range s.members {
		out = append(out, s.members[(start+i)%len(s.members)])
	}
	return out
}

// forward tries members in routing order — healthy ones first, then (as
// a last-ditch revival pass) any member not yet tried in this call, so a
// recovered member rejoins without waiting for a pull and a member that
// just failed is not immediately re-tried. Every error it returns is a
// collector.Refusal carrying the supervisor's answer.
//
// Failover is only safe when the shard provably did not merge at the
// attempted member, so each outcome is classified:
//
//   - 400/409: the member understood the submission and refused it —
//     every member enforcing the same pinned pipeline would; final. A
//     400 goes back in the member's words; a 409, which passed the
//     supervisor's own checks, names the misconfigured member.
//   - any other 4xx (401 from a misconfigured token, a proxy 404), or
//     a 5xx carrying the collector's JSON error envelope: the member's
//     stack answered before merging — a member-local problem; mark
//     unhealthy and fail over.
//   - dial-phase transport failure: the request never reached the
//     member; mark unhealthy and fail over.
//   - anything else — a reset, a truncated response or no answer
//     within memberTimeout after sending, or an envelope-less 5xx (a
//     reverse proxy's 502/504 can arrive AFTER the member behind it
//     merged): the member MAY hold the shard.
//     Failing over would risk a double merge, so the submission ID is
//     pinned to this member and the client told to retry — the replay
//     routes back here and the member's idempotency log answers
//     exactly once.
func (s *Supervisor) forward(ctx context.Context, kind collector.ShardKind, body []byte, hdr *collector.Pipeline, id string) (*collector.SubmitResponse, *member, error) {
	span := trace.SpanFrom(ctx)
	s.mu.Lock()
	pinned := s.sticky[id]
	s.mu.Unlock()
	order := s.order()
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
				return resp, m, nil
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
				return nil, nil, unknownState("request cancelled while member %s was processing; retry with the same submission ID", m.url)
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
				return nil, nil, unknownState("member %s reports this submission's state as unknown; retry with the same submission ID", m.url)
			case errors.As(err, &se) && (se.StatusCode == http.StatusBadRequest || se.StatusCode == http.StatusConflict):
				// The member's submission handler runs its replay check
				// before any validation, so a 400/409 proves this ID
				// never merged there — any sticky pin is resolved.
				s.mu.Lock()
				delete(s.sticky, id)
				s.mu.Unlock()
				msg := se.Message
				if msg == "" { // the member sent no JSON body
					msg = se.Error()
				}
				if se.StatusCode == http.StatusConflict {
					msg = fmt.Sprintf("member %s: %s", m.url, msg)
				}
				return nil, nil, &collector.Refusal{Status: se.StatusCode, Err: errors.New(msg)}
			case errors.As(err, &se) && (se.StatusCode < 500 || se.Message != ""),
				collector.RequestNotSent(err):
				// The member's own stack answered non-2xx before any
				// merge (4xx, or a 5xx with the collector's error
				// envelope and no unknown-state mark), or the request
				// never reached it: safe to try the next one.
				m.markUnhealthy(err)
				m.failovers.Inc()
				span.Event("failover", trace.String("member", m.url), trace.String("error", err.Error()))
				lastErr = err
			default:
				m.markUnhealthy(err)
				s.pinSticky(id, m)
				span.Event("sticky.pin", trace.String("member", m.url), trace.String("reason", "answer lost after send"))
				return nil, nil, unknownState("member %s may hold this submission but its answer was lost (%v); retry with the same submission ID", m.url, err)
			}
		}
	}
	if pinned != nil {
		// The pinned member could not answer this retry, so the
		// original attempt's merge state is STILL unknown — a stacked
		// supervisor above must not read this 503 as safe to fail over.
		return nil, nil, unknownState("pinned member %s is unreachable and may hold this submission (%v); retry with the same submission ID", pinned.url, lastErr)
	}
	return nil, nil, &collector.Refusal{Status: http.StatusServiceUnavailable,
		Err: fmt.Errorf("no fleet member accepted the %s submission: %v", kind, lastErr)}
}

// unknownState refuses a submission that may still have merged somewhere
// below: 503, marked with the X-Dpspatial-Submission-State header so
// supervisors stack without losing the distinction.
func unknownState(format string, args ...any) error {
	return &collector.Refusal{Status: http.StatusServiceUnavailable, Unknown: true, Err: fmt.Errorf(format, args...)}
}

// replay is the supervisor's ack-log lookup for the Engine's replay
// check, made before the body is read. commit re-checks under the
// in-flight reservation, which remains the authoritative gate.
func (s *Supervisor) replay(ctx context.Context, id string) (collector.SubmitResponse, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replayLocked(trace.SpanFrom(ctx), id)
}

// replayLocked answers a replayed submission ID from the ack log and
// counts the duplicate. Callers hold mu.
func (s *Supervisor) replayLocked(span *trace.Span, id string) (collector.SubmitResponse, bool) {
	prev, ok := s.acks.Get(id)
	if ok {
		s.stats.DuplicateShards++
		s.met.Submissions.With(collector.SubmissionDuplicate).Inc()
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

// mergedBlob is the supervisor's GET /v1/aggregate: the fleet-merged
// aggregate as a DPA2 blob — byte-compatible with a collector's, so
// supervisors stack.
func (s *Supervisor) mergedBlob(ctx context.Context) ([]byte, error) {
	merged, _, err := s.pullMerged(ctx)
	if err != nil {
		return nil, err
	}
	return merged.MarshalBinary()
}

func (s *Supervisor) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	stats := s.stats
	s.mu.Unlock()
	stats.Generation = stats.Routed
	s.engine.FillStats(&stats.Stats)
	stats.Members = s.memberStats(r.Context())
	for _, m := range stats.Members {
		stats.Reports += m.Reports
		stats.Failovers += m.Failovers
	}
	collector.WriteJSON(w, http.StatusOK, &stats)
}

// memberStats snapshots the supervisor-side counters for every member
// and enriches them with the member's own live /v1/stats (generation,
// absorbed reports) when it answers within memberTimeout.
func (s *Supervisor) memberStats(ctx context.Context) []MemberStats {
	out := make([]MemberStats, len(s.members))
	var wg sync.WaitGroup
	for i, m := range s.members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			out[i] = m.snapshot()
			cctx, cancel := context.WithTimeout(ctx, memberTimeout)
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

// Stats is the JSON body of the supervisor's GET /v1/stats: the
// collector's envelope, so collector.Client.Stats pointed at a
// supervisor decodes the fleet-level view of the same counters, plus
// the routing counters and the members. In the collector part,
// Generation is Routed; ReportShards and AggregateShards split Routed
// by framing; DuplicateShards counts replayed submission IDs answered
// from an idempotency log (the supervisor's or a member's) without
// merging; and Reports sums the report counts the answering members
// currently hold — the fleet-wide absorbed total when every member
// answers.
type Stats struct {
	collector.Stats
	// Routed counts submissions accepted by a member via this
	// supervisor.
	Routed uint64 `json:"routed"`
	// Failovers counts member attempts that failed transiently and made
	// a submission move on to the next member in routing order: the sum
	// of the members' Failovers.
	Failovers uint64 `json:"failovers"`
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
	// member did not answer the stats request).
	Durability *durable.Stats `json:"durability,omitempty"`
}
