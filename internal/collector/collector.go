// Package collector wraps the report lifecycle's aggregator and
// estimator stages in a long-running HTTP service. Devices (or upstream
// shards) POST report streams and binary aggregates; the collector
// merges them associatively under a single canonical aggregate — so the
// merged state is byte-identical regardless of arrival interleaving —
// and keeps a current estimate, re-decoding on a configurable merge
// cadence with warm-started EM so each refresh costs a fraction of a
// cold decode.
//
// The first decode after startup is a cold start, so an estimate fetched
// after a batch of submissions is byte-identical to calling
// EstimateFromAggregate on the same merged shards in process. Later
// refreshes warm-start from the previous generation's estimate and reach
// the same fixed point within the EM tolerance; /v1/stats reports the
// iterations saved.
package collector

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"dpspatial/internal/durable"
	"dpspatial/internal/em"
	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
	"dpspatial/internal/trace"
)

// Estimator is the mechanism surface the collector needs: the client
// layer (to validate compatibility and allocate aggregates) plus the
// estimator stage. Every ReportingMechanism of the public API satisfies
// it.
type Estimator interface {
	fo.Reporter
	NewAggregate() *fo.Aggregate
	EstimateFromAggregate(agg *fo.Aggregate) (*grid.Hist2D, error)
}

// WarmEstimator is an Estimator with the incremental decode path.
// Mechanisms that implement it (the DAM family) get warm-started cadence
// refreshes; others re-decode cold each time.
type WarmEstimator interface {
	Estimator
	EstimateFromAggregateWarm(agg *fo.Aggregate, init *grid.Hist2D) (*grid.Hist2D, em.Stats, error)
}

// Config configures a collector.
type Config struct {
	// Mechanism, if non-nil, locks the collector to this estimator from
	// the start.
	Mechanism Estimator
	// Pipeline optionally records the metadata of a pre-built Mechanism,
	// so GET /v1/aggregate can replay it and submissions carrying
	// pipeline metadata are cross-checked in full — including the
	// geographic domain, which the report scheme string alone does not
	// encode. When nil, the first submission whose metadata
	// cross-checks against the mechanism (scheme and shape) pins it
	// for the rest of the daemon's life; set Pipeline explicitly to
	// control the domain rather than trusting the first client.
	Pipeline *Pipeline
	// Build, if set and Mechanism is nil, lets the collector adopt its
	// mechanism from the first submission that carries a Pipeline header
	// (a report stream's first line, or X-Dpspatial-Pipeline on a binary
	// aggregate POST). Until then, submissions without a header are
	// rejected with 409.
	Build func(p *Pipeline) (Estimator, error)
	// Cadence is the background refresh period: every Cadence the
	// collector re-decodes the estimate if new shards arrived (warm-
	// started when the mechanism supports it). Zero disables the
	// background loop; GET /v1/estimate still refreshes on demand.
	Cadence time.Duration
	// MaxBodyBytes caps accepted request bodies (default 64 MiB).
	MaxBodyBytes int64
	// AuthToken, when non-empty, locks every endpoint except GET
	// /healthz behind shared-secret bearer-token auth: requests must
	// carry "Authorization: Bearer <token>". Clients set the same token
	// in Client.AuthToken.
	AuthToken string
	// Store, when non-nil, makes the collector durable: the state the
	// store recovered is replayed at New (refusing on anything corrupt
	// or foreign), every accepted submission is appended to its WAL and
	// fsync'd BEFORE the ack is sent, and snapshots compact the log
	// every SnapshotEvery records plus once at Close. Without a store,
	// behavior is byte-identical to the in-memory collector.
	Store *durable.Store
	// SnapshotEvery is the WAL-record count between snapshots
	// (0 = DefaultSnapshotEvery; negative = snapshot only at Close).
	SnapshotEvery int
	// DisableMetrics leaves GET /metrics unrouted (404). The collector
	// still accounts internally; only the exposition endpoint is gated.
	DisableMetrics bool
	// DisableTraces turns request tracing off entirely: no spans are
	// recorded and GET /v1/traces is unrouted (404). Enabled by default
	// because span recording is allocation-light.
	DisableTraces bool
	// TraceCapacity bounds the completed-trace ring GET /v1/traces
	// serves (0 = trace.DefaultCapacity).
	TraceCapacity int
	// SlowLog, when non-nil, emits one structured log line (carrying
	// the trace ID) per request at or over its threshold.
	SlowLog *trace.SlowLogger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — behind
	// the same bearer gate as the data endpoints, and excluded from
	// request accounting and tracing. Off by default.
	EnablePprof bool
}

// DefaultSnapshotEvery is the snapshot cadence applied when a durable
// collector leaves SnapshotEvery unset: how many WAL records a crash
// may have to replay.
const DefaultSnapshotEvery = 256

// DefaultMaxBodyBytes is the request-body cap applied when a collector
// or fleet supervisor config leaves MaxBodyBytes unset.
const DefaultMaxBodyBytes = 64 << 20

// DedupWindow bounds the idempotency logs of collectors and
// supervisors: the acks of this many recent submissions are remembered
// for replay detection.
const DedupWindow = 1 << 16

// Collector is the HTTP service. It implements http.Handler; run it
// under any http.Server (or httptest.Server), and call Start/Close
// around the serving lifetime to run the cadence loop.
type Collector struct {
	cfg Config
	// engine serves the read path (estimate and query caches, decode
	// spans and metrics, the cadence loop) over mergedState, and wraps
	// every handler in the bearer gate, accounting and tracing.
	engine *Engine

	// mu guards the mutable collector state. Submissions hold it only
	// for the merge itself, never during an EM decode.
	mu         sync.Mutex
	mech       Estimator
	pipeline   *Pipeline
	agg        *fo.Aggregate
	generation uint64
	stats      Stats
	acks       *AckLog // idempotency log: submission ID → original ack

	// store, when non-nil, is the durable persistence layer; WAL appends
	// and snapshots run under mu as part of the submission commit.
	// pipelinePersisted tracks whether the store (snapshot or current
	// WAL) already holds the pinned pipeline, so each WAL generation
	// records it exactly once.
	store             *durable.Store
	pipelinePersisted bool
}

// New builds a collector. Either cfg.Mechanism or cfg.Build must be set.
func New(cfg Config) (*Collector, error) {
	if cfg.Mechanism == nil && cfg.Build == nil {
		return nil, fmt.Errorf("collector: config needs a Mechanism or a Build hook")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	c := &Collector{cfg: cfg, store: cfg.Store, acks: NewAckLog(DedupWindow)}
	c.engine = NewEngine(EngineConfig{
		Tier: "collector", Service: "collector",
		Source: c.mergedState,
		Routes: map[string]http.HandlerFunc{
			"/healthz":      MethodOnly(http.MethodGet, c.handleHealthz),
			"/v1/report":    MethodOnly(http.MethodPost, c.handleReport),
			"/v1/aggregate": c.handleAggregate,
			"/v1/stats":     MethodOnly(http.MethodGet, c.handleStats),
		},
		Cadence:        cfg.Cadence,
		AuthToken:      cfg.AuthToken,
		DisableMetrics: cfg.DisableMetrics,
		DisableTraces:  cfg.DisableTraces,
		TraceCapacity:  cfg.TraceCapacity,
		SlowLog:        cfg.SlowLog,
		EnablePprof:    cfg.EnablePprof,
	})
	if cfg.Mechanism != nil {
		c.mech = cfg.Mechanism
		c.pipeline = cfg.Pipeline
		c.agg = cfg.Mechanism.NewAggregate()
		c.stats.Scheme = cfg.Mechanism.Scheme()
	}
	if c.store != nil {
		if err := c.recoverFromStore(); err != nil {
			return nil, fmt.Errorf("collector: recovering durable state: %w", err)
		}
	}
	c.stats.CadenceMillis = cfg.Cadence.Milliseconds()
	c.registerCollectorMetrics()
	return c, nil
}

// ServeHTTP implements http.Handler.
func (c *Collector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.engine.ServeHTTP(w, r)
}

// Tracer exposes the collector's completed-trace ring — nil when the
// collector was built with DisableTraces.
func (c *Collector) Tracer() *trace.Tracer { return c.engine.tracer }

// Start launches the background merge-cadence loop. It is a no-op when
// the configured cadence is zero.
func (c *Collector) Start() { c.engine.Start() }

// Close stops the cadence loop and, on a durable collector, compacts
// any WAL records into a final snapshot so the next start recovers from
// the snapshot alone. The handler stays usable. A failed final snapshot
// is harmless — the WAL still holds everything it would have covered.
func (c *Collector) Close() {
	c.engine.Close()
	c.mu.Lock()
	if c.store != nil && c.mech != nil && c.store.RecordsSinceSnapshot() > 0 {
		_ = c.snapshotLocked()
	}
	c.mu.Unlock()
}

// ResolveMechanism returns the mechanism a submission carrying pipeline
// metadata p (which may be nil) should validate against: the installed
// one, checked against p and the pinned pipeline, or — while the tier
// (named in refusals) has none — a candidate built from p. A candidate
// (adopted=true) is NOT installed here: callers commit it only after
// the whole submission validated, so a rejected shard can never lock a
// tier to its mechanism.
func ResolveMechanism(tier string, installed Estimator, pinned, p *Pipeline, build func(*Pipeline) (Estimator, error)) (mech Estimator, adopted bool, err error) {
	if installed != nil {
		if p != nil && p.Scheme != "" && p.Scheme != installed.Scheme() {
			return nil, false, fmt.Errorf("submission scheme %q does not match %s scheme %q", p.Scheme, tier, installed.Scheme())
		}
		if p != nil && pinned != nil {
			if err := pinned.Compatible(p); err != nil {
				return nil, false, err
			}
		}
		return installed, false, nil
	}
	if p == nil {
		return nil, false, fmt.Errorf("%s has no mechanism yet; submit a shard with pipeline metadata first", tier)
	}
	candidate, err := build(p)
	if err != nil {
		return nil, false, fmt.Errorf("building mechanism from pipeline: %w", err)
	}
	if p.Scheme != "" && candidate.Scheme() != p.Scheme {
		return nil, false, fmt.Errorf("rebuilt mechanism scheme %q does not match submitted scheme %q", candidate.Scheme(), p.Scheme)
	}
	return candidate, true, nil
}

// resolveMechanism is ResolveMechanism against the collector's state;
// callers commit an adopted candidate with adoptLocked.
func (c *Collector) resolveMechanism(p *Pipeline) (Estimator, bool, error) {
	c.mu.Lock()
	installed, pipeline := c.mech, c.pipeline
	c.mu.Unlock()
	return ResolveMechanism("collector", installed, pipeline, p, c.cfg.Build)
}

// adoptLocked installs a validated candidate mechanism — unless a
// concurrent submission already installed one, in which case the
// candidate must agree on the scheme. Callers hold mu.
func (c *Collector) adoptLocked(mech Estimator, p *Pipeline) error {
	if c.mech != nil {
		if c.mech.Scheme() != mech.Scheme() {
			return fmt.Errorf("submission scheme %q does not match collector scheme %q", mech.Scheme(), c.mech.Scheme())
		}
		return nil
	}
	pin := *p
	c.mech = mech
	c.pipeline = &pin
	c.agg = mech.NewAggregate()
	c.stats.Scheme = mech.Scheme()
	return nil
}

// checkAndPinPipelineLocked validates a submission's pipeline metadata
// at commit time — under mu, because the resolveMechanism snapshot may
// be stale by the time the body has been processed — and records the
// first cross-checkable metadata when the collector was constructed
// with a bare Mechanism and no Pipeline. The report scheme alone does
// not encode the geographic domain, so without the pin a same-scheme
// shard collected over a different region would merge silently; once
// pinned, Pipeline.Compatible refuses it, including for concurrent
// first submissions racing each other. A header only becomes the pin if
// its scheme and (when present) shape agree with the installed
// mechanism, so one misconfigured client cannot poison the pin and
// lock every later correct submission out. Callers hold mu; c.mech is
// installed.
func (c *Collector) checkAndPinPipelineLocked(p *Pipeline) error {
	if p == nil {
		return nil
	}
	if p.Scheme != "" && p.Scheme != c.mech.Scheme() {
		return fmt.Errorf("submission scheme %q does not match collector scheme %q", p.Scheme, c.mech.Scheme())
	}
	if c.pipeline != nil {
		return c.pipeline.Compatible(p)
	}
	if p.Shape != nil {
		shape := c.mech.ReportShape()
		if len(p.Shape) != len(shape) {
			return fmt.Errorf("submission declares %d report planes, mechanism has %d", len(p.Shape), len(shape))
		}
		for i, n := range shape {
			if p.Shape[i] != n {
				return fmt.Errorf("submission plane %d has %d counts, mechanism expects %d", i, p.Shape[i], n)
			}
		}
	}
	if p.Scheme == "" || p.Mech == "" || p.D <= 0 || p.Domain.Side <= 0 {
		// Partial metadata cannot be cross-checked (and would lock out
		// fully-specified clients if pinned): merge but never pin it.
		return nil
	}
	pin := *p
	c.pipeline = &pin
	return nil
}

// commitShard runs the locked commit of a fully parsed and validated
// submission: replay-check the submission ID, install an adopted
// candidate mechanism, validate and pin the pipeline metadata, persist
// the submission to the WAL (durable collectors), merge the shard, and
// count it. Both submission handlers share it so the adoption
// transaction cannot diverge between the report and aggregate paths. A
// replayed ID returns the original ack without merging, which is what
// makes client retries after a lost response exactly-once.
//
// The commit order is what extends that guarantee across a crash: the
// ack is constructed from the post-merge totals, fsync'd into the WAL,
// and only THEN merged — so every acknowledged submission is on disk,
// and since the shard already passed Compatible (a superset of Merge's
// checks) the merge after a successful append cannot fail, keeping
// memory and disk in lockstep.
func (c *Collector) commitShard(ctx context.Context, shard *fo.Aggregate, hdr *Pipeline, mech Estimator, adopted bool, id string, kind ShardKind) (SubmitResponse, error) {
	span := trace.SpanFrom(ctx)
	span.SetAttr(trace.String("submissionId", id), trace.String("shardKind", kind.String()))
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.acks.Get(id); ok {
		c.stats.DuplicateShards++
		c.engine.met.Submissions.With(SubmissionDuplicate).Inc()
		// The replayed ack carries the ORIGINAL submission's trace ID —
		// the one whose trace actually holds the merge spans.
		span.Event("duplicate.replay", trace.String("originalTraceId", prev.TraceID))
		return prev, nil
	}
	if adopted {
		if err := c.adoptLocked(mech, hdr); err != nil {
			return SubmitResponse{}, err
		}
	}
	if err := c.checkAndPinPipelineLocked(hdr); err != nil {
		return SubmitResponse{}, err
	}
	if err := shard.Compatible(c.mech); err != nil {
		return SubmitResponse{}, err
	}
	resp := SubmitResponse{
		Scheme:       c.mech.Scheme(),
		Reports:      shard.N,
		TotalReports: c.agg.N + shard.N,
		Generation:   c.generation + 1,
		TraceID:      span.TraceID(),
	}
	if err := c.persistShardLocked(span, shard, resp, id, kind); err != nil {
		return SubmitResponse{}, err
	}
	mergeSpan := span.Child("collector.merge")
	if err := c.agg.Merge(shard); err != nil {
		mergeSpan.Fail(err)
		mergeSpan.End()
		return SubmitResponse{}, err
	}
	c.generation++
	mergeSpan.SetAttr(
		trace.Float("reports", shard.N),
		trace.Float("totalReports", c.agg.N),
		trace.Int("generation", int64(c.generation)),
	)
	mergeSpan.End()
	c.stats.Generation = c.generation
	c.stats.Reports = c.agg.N
	kind.count(&c.stats)
	ackSpan := span.Child("collector.ack")
	c.acks.Put(id, resp)
	ackSpan.End()
	c.engine.met.Submissions.With(SubmissionAccepted).Inc()
	c.maybeSnapshotLocked()
	return resp, nil
}

// replayedAck answers a submission whose ID was already merged without
// touching the request body — the handlers' fast path.
func (c *Collector) replayedAck(r *http.Request) (SubmitResponse, bool) {
	id := r.Header.Get(SubmissionIDHeader)
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, ok := c.acks.Get(id)
	if ok {
		c.stats.DuplicateShards++
		c.engine.met.Submissions.With(SubmissionDuplicate).Inc()
		span := trace.SpanFrom(r.Context())
		span.SetAttr(trace.String("submissionId", id))
		span.Event("duplicate.replay", trace.String("originalTraceId", prev.TraceID))
	}
	return prev, ok
}

// errNoMechanism / errNoReports are the collector's read refusals
// before it holds anything to decode (409).
var (
	errNoMechanism = errors.New("collector has no mechanism yet")
	errNoReports   = errors.New("no reports merged yet")
)

// mergedState is the collector's state source: its generation names the
// canonical aggregate, which is cloned under mu — only when the engine
// holds no decode of this generation — so submissions keep flowing
// while the engine decodes.
func (c *Collector) mergedState(_ context.Context, cached uint64, ok bool) (State, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mech == nil {
		return State{}, errNoMechanism
	}
	if c.agg.N == 0 {
		return State{}, errNoReports
	}
	st := State{Mech: c.mech, Key: c.generation, Gen: c.generation, N: c.agg.N}
	if !ok || cached != c.generation {
		st.Agg = c.agg.Clone()
	}
	return st, nil
}

// --- HTTP handlers ---

func (c *Collector) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	scheme := ""
	if c.mech != nil {
		scheme = c.mech.Scheme()
	}
	gen := c.generation
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "scheme": scheme, "generation": gen,
	})
}

// handleReport accepts a report stream: the cmd/damctl reports framing
// (a Pipeline header line, then one JSON report per line), or bare
// report lines when the collector is already locked to a scheme. The
// whole stream counts as one shard and merges atomically.
func (c *Collector) handleReport(w http.ResponseWriter, r *http.Request) {
	if prev, ok := c.replayedAck(r); ok {
		writeJSON(w, http.StatusOK, &prev)
		return
	}
	// The body-read span covers probing, parsing and counting the whole
	// stream into the shard aggregate. End is idempotent: the success
	// path ends it with the report count, the deferred call closes it on
	// every early (4xx) return.
	readSpan := trace.SpanFrom(r.Context()).Child("collector.body.read")
	defer readSpan.End()
	br := bufio.NewReaderSize(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes), 1<<20)
	// A read error leaves first empty or cut short, which ParseStreamHead
	// refuses; EOF after an unterminated line is a one-line stream.
	first, _ := br.ReadBytes('\n')
	hdr, firstReport, err := ParseStreamHead(first)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// Resolve the mechanism (building a not-yet-installed candidate on
	// first contact), then count the stream into a shard aggregate
	// outside the lock so report counting never blocks other shards.
	// Adoption commits only after the whole stream parses.
	mech, adopted, err := c.resolveMechanism(hdr)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}

	shard := mech.NewAggregate()
	if firstReport != nil {
		if err := shard.Add(*firstReport); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	dec := json.NewDecoder(br)
	for {
		var rep fo.Report
		if err := dec.Decode(&rep); err == io.EOF {
			break
		} else if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad report line: %v", err))
			return
		}
		if err := shard.Add(rep); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	readSpan.SetAttr(trace.Float("reports", shard.N))
	readSpan.End()

	resp, err := c.commitShard(r.Context(), shard, hdr, mech, adopted, r.Header.Get(SubmissionIDHeader), ShardReport)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &resp)
}

// handleAggregate accepts a serialized aggregate shard (POST, DPA1/DPA2
// blob) or serves the merged canonical aggregate (GET, DPA2 blob).
func (c *Collector) handleAggregate(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
	case http.MethodGet:
		c.serveAggregate(w)
		return
	default:
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET or POST only"))
		return
	}
	if prev, ok := c.replayedAck(r); ok {
		writeJSON(w, http.StatusOK, &prev)
		return
	}
	readSpan := trace.SpanFrom(r.Context()).Child("collector.body.read")
	defer readSpan.End()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %v", err))
		return
	}
	shard := &fo.Aggregate{}
	if err := shard.UnmarshalBinary(body); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	readSpan.SetAttr(trace.Int("bodyBytes", int64(len(body))), trace.Float("reports", shard.N))
	readSpan.End()
	var hdr *Pipeline
	if raw := r.Header.Get(PipelineHeader); raw != "" {
		hdr = &Pipeline{}
		if err := json.Unmarshal([]byte(raw), hdr); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s header: %v", PipelineHeader, err))
			return
		}
	}
	mech, adopted, err := c.resolveMechanism(hdr)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	// Validate the shard against the resolved mechanism BEFORE any
	// adoption commits: a bad blob must not lock the collector.
	if err := shard.Compatible(mech); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	resp, err := c.commitShard(r.Context(), shard, hdr, mech, adopted, r.Header.Get(SubmissionIDHeader), ShardAggregate)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &resp)
}

func (c *Collector) serveAggregate(w http.ResponseWriter) {
	c.mu.Lock()
	if c.mech == nil {
		c.mu.Unlock()
		writeError(w, http.StatusConflict, errNoMechanism)
		return
	}
	blob, err := c.agg.MarshalBinary()
	var hdr []byte
	if c.pipeline != nil {
		hdr, _ = json.Marshal(c.pipeline)
	}
	c.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if hdr != nil {
		w.Header().Set(PipelineHeader, string(hdr))
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}

func (c *Collector) handleStats(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	stats := c.stats
	c.mu.Unlock()
	stats.DecodeCounters, stats.EstimateGeneration = c.engine.DecodeStats()
	if c.store != nil {
		ds := c.store.Stats()
		stats.Durability = &ds
	}
	writeJSON(w, http.StatusOK, &stats)
}

// WriteJSON writes v as the JSON response body — the envelope helper
// shared by the collector and fleet-supervisor handlers.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// WriteError writes the wire error envelope both tiers answer with.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, &errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) { WriteJSON(w, status, v) }

func writeError(w http.ResponseWriter, status int, err error) { WriteError(w, status, err) }
