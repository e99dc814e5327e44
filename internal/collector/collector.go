// Package collector wraps the report lifecycle's aggregator and
// estimator stages in a long-running HTTP service. Devices (or upstream
// shards) POST report streams and binary aggregates; the collector
// merges them associatively under a single canonical aggregate — so the
// merged state is byte-identical regardless of arrival interleaving —
// and keeps a current estimate, re-decoding on a configurable merge
// cadence.
//
// The first decode after startup is a cold start, so an estimate fetched
// after a batch of submissions is byte-identical to calling
// EstimateFromAggregate on the same merged shards in process. Later
// refreshes start EM from the previous generation's estimate, under the
// same iteration cap as a cold decode. A warm start saves iterations
// only when EM meets its tolerance before that cap; in loadbench's
// refresh workload every decode runs to the cap, so a refresh costs
// what a cold decode costs. A warm estimate depends on the estimate it
// started from, so it can differ from a cold decode of the same
// aggregate. /v1/stats reports each decode's iterations and the
// iterations saved.
//
// A collector serves one mechanism and the pipeline it is pinned to:
// both come from Config (Mechanism with its Pipeline), or are adopted
// from the first submission that carries pipeline metadata and
// validates in full (Build). The shared Engine, which also serves the
// fleet supervisor, holds that identity and refuses reads until it is
// set.
package collector

import (
	"context"
	"encoding/json"
	"fmt"
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
	// the start; Pipeline must then carry its metadata.
	Mechanism Estimator
	// Pipeline is the metadata of a pre-built Mechanism: the pin. GET
	// /v1/aggregate serves it, and every submission carrying pipeline
	// metadata is checked against it in full — including the geographic
	// domain, which the report scheme string alone does not encode.
	// Required with Mechanism; ignored with Build (the pin comes from the
	// first accepted submission instead).
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
	// for the merge itself, never during an EM decode. agg is nil until
	// the collector adopts a mechanism; stats holds the shard counters.
	mu         sync.Mutex
	agg        *fo.Aggregate
	generation uint64
	stats      Stats
	acks       *AckLog // idempotency log: submission ID → original ack

	// store, when non-nil, is the durable persistence layer; WAL appends
	// and snapshots run under mu as part of the submission commit.
	// pipelinePersisted tracks whether the store (snapshot or current
	// WAL) already holds the pin, so each WAL generation records it
	// exactly once. snapshotTriedAt is RecordsSinceSnapshot
	// as the last snapshot attempt left it: 0 after a success, the
	// backlog after a failure.
	store             *durable.Store
	pipelinePersisted bool
	snapshotTriedAt   uint64
}

// New builds a collector. Either cfg.Mechanism, with its cfg.Pipeline,
// or cfg.Build must be set.
func New(cfg Config) (*Collector, error) {
	if cfg.Mechanism == nil && cfg.Build == nil {
		return nil, fmt.Errorf("collector: config needs a Mechanism or a Build hook")
	}
	if cfg.Mechanism != nil && cfg.Pipeline == nil {
		return nil, fmt.Errorf("collector: a pre-built Mechanism needs its Pipeline metadata (the pin every submission is checked against)")
	}
	c := &Collector{cfg: cfg, store: cfg.Store, acks: NewAckLog(DedupWindow)}
	c.engine = NewEngine(EngineConfig{
		Tier: "collector", Service: "collector",
		Mechanism: cfg.Mechanism,
		Pipeline:  cfg.Pipeline,
		Build:     cfg.Build,
		Source:    c.mergedState,
		Replay:    c.replay,
		Commit:    c.commit,
		Aggregate: c.aggregateBlob,
		Routes: map[string]http.HandlerFunc{
			"/v1/stats": MethodOnly(http.MethodGet, c.handleStats),
		},
		Cadence:       cfg.Cadence,
		AuthToken:     cfg.AuthToken,
		DisableTraces: cfg.DisableTraces,
		TraceCapacity: cfg.TraceCapacity,
		SlowLog:       cfg.SlowLog,
		EnablePprof:   cfg.EnablePprof,
	})
	if cfg.Mechanism != nil {
		c.agg = cfg.Mechanism.NewAggregate()
	}
	if c.store != nil {
		if err := c.recoverFromStore(); err != nil {
			return nil, fmt.Errorf("collector: recovering durable state: %w", err)
		}
	}
	c.registerCollectorMetrics()
	return c, nil
}

// ServeHTTP implements http.Handler.
func (c *Collector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.engine.ServeHTTP(w, r)
}

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
	if c.store != nil && c.store.RecordsSinceSnapshot() > 0 {
		_ = c.snapshotLocked()
	}
	c.mu.Unlock()
}

// commit is the collector's step of the Engine's submit path: resolve
// the mechanism (building a not-yet-installed candidate on first
// contact), then count a report stream into a shard aggregate — outside
// the lock, so report counting never blocks other shards — or check a
// blob against the mechanism, and commit the shard. Adoption commits
// only after the whole submission validated: a bad shard must not lock
// the collector.
func (c *Collector) commit(ctx context.Context, sub *Submission) (SubmitResponse, error) {
	mech, candidate, err := c.engine.Resolve(sub.Pipeline)
	if err != nil {
		return SubmitResponse{}, err
	}
	shard := sub.Shard
	if shard == nil {
		shard = mech.NewAggregate()
		if err := sub.ReadReports(shard); err != nil {
			return SubmitResponse{}, err
		}
	} else if err := shard.Compatible(mech); err != nil {
		return SubmitResponse{}, err
	}
	return c.commitShard(ctx, shard, sub.Pipeline, mech, candidate, sub.ID, sub.Kind)
}

// commitShard runs the locked commit of a fully parsed and validated
// submission: replay-check the submission ID, adopt a candidate
// mechanism, persist the submission to the WAL (durable collectors),
// merge the shard, and count it. Both submission kinds run it, so the
// adoption transaction cannot diverge between the report and aggregate
// paths. A replayed ID returns the original ack without merging, which
// is what makes client retries after a lost response exactly-once.
//
// The commit order is what extends that guarantee across a crash: the
// ack is constructed from the post-merge totals, fsync'd into the WAL,
// and only THEN merged — so every acknowledged submission is on disk,
// and since the shard already passed Compatible (a superset of Merge's
// checks) the merge after a successful append cannot fail, keeping
// memory and disk in lockstep.
func (c *Collector) commitShard(ctx context.Context, shard *fo.Aggregate, hdr *Pipeline, mech Estimator, candidate bool, id string, kind ShardKind) (SubmitResponse, error) {
	span := trace.SpanFrom(ctx)
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.replayLocked(span, id); ok {
		return prev, nil
	}
	if candidate {
		if err := c.installLocked(mech, hdr); err != nil {
			return SubmitResponse{}, err
		}
	}
	resp := SubmitResponse{
		Scheme:       mech.Scheme(),
		Reports:      shard.N,
		TotalReports: c.agg.N + shard.N,
		Generation:   c.generation + 1,
		TraceID:      span.TraceID(),
	}
	ack, err := json.Marshal(&resp)
	if err != nil {
		return SubmitResponse{}, err
	}
	if err := c.persistShardLocked(span, shard, ack, id, kind); err != nil {
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
	kind.Count(&c.stats)
	ackSpan := span.Child("collector.ack")
	c.acks.Put(id, ack)
	ackSpan.End()
	c.engine.met.Submissions.With(SubmissionAccepted).Inc()
	c.maybeSnapshotLocked(span)
	return resp, nil
}

// replay is the collector's ack-log lookup for the Engine's replay
// check, made before the body is read.
func (c *Collector) replay(ctx context.Context, id string) (SubmitResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replayLocked(trace.SpanFrom(ctx), id)
}

// replayLocked answers a replayed submission ID from the ack log and
// counts the duplicate. The replayed ack carries the ORIGINAL
// submission's trace ID — the one whose trace holds the merge spans.
// Callers hold mu.
func (c *Collector) replayLocked(span *trace.Span, id string) (SubmitResponse, bool) {
	prev, ok := c.acks.Get(id)
	if ok {
		c.stats.DuplicateShards++
		c.engine.met.Submissions.With(SubmissionDuplicate).Inc()
		span.Event("duplicate.replay", trace.String("originalTraceId", prev.TraceID))
	}
	return prev, ok
}

// installLocked adopts a candidate mechanism from Engine.Resolve as the
// collector's identity and opens its canonical aggregate. Callers hold
// mu.
func (c *Collector) installLocked(mech Estimator, p *Pipeline) error {
	if err := c.engine.Adopt(mech, p); err != nil {
		return err
	}
	if c.agg == nil {
		c.agg = mech.NewAggregate()
	}
	return nil
}

// mergedState is the collector's state source: its generation names the
// canonical aggregate, which is cloned under mu — only when the engine
// holds no decode of this generation — so submissions keep flowing
// while the engine decodes.
func (c *Collector) mergedState(_ context.Context, cached uint64, ok bool) (State, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := State{Key: c.generation, Gen: c.generation, N: c.agg.N}
	if !ok || cached != c.generation {
		st.Agg = c.agg.Clone()
	}
	return st, nil
}

// aggregateBlob is the collector's GET /v1/aggregate: the canonical
// aggregate as a DPA2 blob.
func (c *Collector) aggregateBlob(context.Context) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.agg.MarshalBinary()
}

func (c *Collector) handleStats(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	stats := c.stats
	stats.Generation = c.generation
	if c.agg != nil {
		stats.Reports = c.agg.N
	}
	c.mu.Unlock()
	c.engine.FillStats(&stats)
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

func writeJSON(w http.ResponseWriter, status int, v any) { WriteJSON(w, status, v) }

// writeError writes the wire error envelope both tiers answer with.
func writeError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, &errorResponse{Error: err.Error()})
}
