package collector

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"dpspatial/internal/durable"
	"dpspatial/internal/fo"
	"dpspatial/internal/trace"
)

// The collector's durable-state formats, layered over the generic
// byte-payload engine of internal/durable:
//
//   - snapshot Meta  = snapshotMeta JSON (scheme, pinned pipeline,
//     generation and shard counters);
//   - snapshot State = the canonical aggregate's DPA1/DPA2 binary
//     encoding — deterministic, so a recovered aggregate is
//     byte-identical to the one that was snapshotted;
//   - snapshot Acks  = the idempotency log, each ack a SubmitResponse
//     JSON, oldest first so FIFO eviction resumes in order;
//   - RecordPipeline Meta = Pipeline JSON, written once when the
//     pipeline is first pinned (and again after every WAL reset until a
//     snapshot covers it);
//   - RecordSubmission    = ID (the submission's idempotency ID),
//     Meta an ackEnvelope JSON, Blob the shard's binary encoding.
//
// The WAL record for a submission is appended and fsync'd BEFORE the
// shard merges and the ack is sent, so an acknowledged submission is
// always recoverable; replay cross-checks each stored ack against the
// regenerated generation and report total, refusing a log that belongs
// to different state.

// snapshotMeta is the collector-owned metadata block of a snapshot.
type snapshotMeta struct {
	Scheme          string    `json:"scheme"`
	Pipeline        *Pipeline `json:"pipeline,omitempty"`
	Generation      uint64    `json:"generation"`
	ReportShards    uint64    `json:"reportShards"`
	AggregateShards uint64    `json:"aggregateShards"`
	DuplicateShards uint64    `json:"duplicateShards"`
}

// ackEnvelope is the Meta payload of a RecordSubmission WAL record: the
// original ack plus which handler accepted the shard, so replay restores
// the idempotency log and the per-kind counters exactly.
type ackEnvelope struct {
	Kind string         `json:"kind"`
	Ack  SubmitResponse `json:"ack"`
}

// ShardKind names a submission's framing — a report stream or a binary
// aggregate. The collector counts shards and persists acks by it; the
// fleet routes by it.
type ShardKind int

// The two submission framings.
const (
	ShardReport ShardKind = iota
	ShardAggregate
)

// String is the kind's wire name in ack envelopes and span attributes.
func (k ShardKind) String() string {
	if k == ShardReport {
		return "report"
	}
	return "aggregate"
}

func shardKindFromString(s string) (ShardKind, error) {
	switch s {
	case "report":
		return ShardReport, nil
	case "aggregate":
		return ShardAggregate, nil
	}
	return 0, fmt.Errorf("unknown shard kind %q", s)
}

func (k ShardKind) count(s *Stats) {
	if k == ShardReport {
		s.ReportShards++
	} else {
		s.AggregateShards++
	}
}

// storeError marks a submission failure in the durability layer rather
// than the submission itself: the handlers answer 503 (retry the same
// ID later) instead of 409 (the shard is wrong).
type storeError struct{ err error }

func (e *storeError) Error() string { return "durable store: " + e.err.Error() }
func (e *storeError) Unwrap() error { return e.err }

// writeSubmitError maps a commit failure onto the wire: a durability
// failure is a 503 whose submission state is unknown — the WAL write
// may have partially persisted, so only a retry of the SAME submission
// ID is safe, never a failover — while everything else stays the 409
// validation refusal.
func writeSubmitError(w http.ResponseWriter, err error) {
	var se *storeError
	if errors.As(err, &se) {
		w.Header().Set(SubmissionStateHeader, SubmissionStateUnknown)
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeError(w, http.StatusConflict, err)
}

// snapshotEvery resolves the configured snapshot cadence.
func (c *Collector) snapshotEvery() int {
	if c.cfg.SnapshotEvery == 0 {
		return DefaultSnapshotEvery
	}
	return c.cfg.SnapshotEvery
}

// recoverFromStore replays the store's recovered state into the
// collector: snapshot first (mechanism, aggregate, counters, ack log),
// then the WAL tail record by record, re-running each submission's
// merge and cross-checking the stored ack against the regenerated
// state. Anything foreign or inconsistent refuses startup — a data
// directory from a different deployment must never merge silently.
// Runs from New, before the collector serves, so the *Locked helpers it
// borrows need no lock yet.
func (c *Collector) recoverFromStore() error {
	rec := c.store.TakeRecovery()
	if rec == nil {
		return nil
	}
	if snap := rec.Snapshot; snap != nil {
		var meta snapshotMeta
		if err := json.Unmarshal(snap.Meta, &meta); err != nil {
			return fmt.Errorf("snapshot metadata: %w", err)
		}
		if err := c.installRecoveredMechanism(meta.Scheme, meta.Pipeline); err != nil {
			return err
		}
		agg := &fo.Aggregate{}
		if err := agg.UnmarshalBinary(snap.State); err != nil {
			return fmt.Errorf("snapshot aggregate: %w", err)
		}
		if err := agg.Compatible(c.mech); err != nil {
			return fmt.Errorf("snapshot aggregate does not fit the collector mechanism: %w", err)
		}
		c.agg = agg
		c.generation = meta.Generation
		c.stats.ReportShards = meta.ReportShards
		c.stats.AggregateShards = meta.AggregateShards
		c.stats.DuplicateShards = meta.DuplicateShards
		for _, e := range snap.Acks {
			var ack SubmitResponse
			if err := json.Unmarshal(e.Ack, &ack); err != nil {
				return fmt.Errorf("snapshot ack %q: %w", e.ID, err)
			}
			c.acks.Put(e.ID, ack)
		}
	}
	for _, r := range rec.Records {
		switch r.Type {
		case durable.RecordPipeline:
			p := &Pipeline{}
			if err := json.Unmarshal(r.Meta, p); err != nil {
				return fmt.Errorf("WAL record %d pipeline: %w", r.Seq, err)
			}
			if err := c.installRecoveredMechanism(p.Scheme, p); err != nil {
				return err
			}
		case durable.RecordSubmission:
			if c.mech == nil {
				return fmt.Errorf("WAL record %d is a submission but no mechanism is configured and no pipeline record precedes it", r.Seq)
			}
			var env ackEnvelope
			if err := json.Unmarshal(r.Meta, &env); err != nil {
				return fmt.Errorf("WAL record %d ack envelope: %w", r.Seq, err)
			}
			kind, err := shardKindFromString(env.Kind)
			if err != nil {
				return fmt.Errorf("WAL record %d: %w", r.Seq, err)
			}
			shard := &fo.Aggregate{}
			if err := shard.UnmarshalBinary(r.Blob); err != nil {
				return fmt.Errorf("WAL record %d shard: %w", r.Seq, err)
			}
			if err := shard.Compatible(c.mech); err != nil {
				return fmt.Errorf("WAL record %d shard does not fit the mechanism: %w", r.Seq, err)
			}
			if err := c.agg.Merge(shard); err != nil {
				return fmt.Errorf("WAL record %d: %w", r.Seq, err)
			}
			c.generation++
			if env.Ack.Generation != c.generation || env.Ack.TotalReports != c.agg.N {
				return fmt.Errorf("WAL record %d ack (generation %d, %g reports) does not match the replayed state (generation %d, %g reports): the log belongs to different state", r.Seq, env.Ack.Generation, env.Ack.TotalReports, c.generation, c.agg.N)
			}
			kind.count(&c.stats)
			c.acks.Put(r.ID, env.Ack)
		default:
			return fmt.Errorf("WAL record %d has unknown type %d", r.Seq, r.Type)
		}
	}
	c.stats.Generation = c.generation
	if c.agg != nil {
		c.stats.Reports = c.agg.N
	}
	c.store.NoteRecovered()
	return nil
}

// installRecoveredMechanism reconciles recovered metadata with the
// configured mechanism. A pre-built Mechanism must agree with the
// stored scheme and pipeline — a mismatch means the data directory
// belongs to a different deployment, and merging foreign state would
// silently corrupt every later estimate, so it refuses. In
// build-on-first-contact mode the stored pipeline rebuilds and installs
// the mechanism exactly as the original adoption did.
func (c *Collector) installRecoveredMechanism(scheme string, p *Pipeline) error {
	if c.mech != nil {
		if scheme != "" && scheme != c.mech.Scheme() {
			return fmt.Errorf("stored state has scheme %q, collector is configured for %q: foreign data directory", scheme, c.mech.Scheme())
		}
		if p != nil {
			if c.pipeline != nil {
				if err := c.pipeline.Compatible(p); err != nil {
					return fmt.Errorf("stored pipeline does not match the configured one: %w", err)
				}
			} else if err := c.checkAndPinPipelineLocked(p); err != nil {
				return fmt.Errorf("stored pipeline does not fit the configured mechanism: %w", err)
			}
		}
	} else {
		if p == nil {
			return fmt.Errorf("stored state carries no pipeline metadata and the collector has no pre-built mechanism")
		}
		mech, err := c.cfg.Build(p)
		if err != nil {
			return fmt.Errorf("rebuilding mechanism from stored pipeline: %w", err)
		}
		if scheme != "" && mech.Scheme() != scheme {
			return fmt.Errorf("rebuilt mechanism scheme %q does not match stored scheme %q", mech.Scheme(), scheme)
		}
		if err := c.adoptLocked(mech, p); err != nil {
			return err
		}
	}
	// The store already holds this pipeline; don't re-log it.
	c.pipelinePersisted = c.pipeline != nil
	return nil
}

// persistShardLocked appends the WAL records for one accepted
// submission — the pipeline pin first, if the store does not hold it
// yet, then the submission itself — as a single fsync'd batch. It runs
// after all validation and BEFORE the merge: once it returns nil the
// submission is durable, and since shard.Compatible already passed, the
// merge that follows cannot fail, so memory and disk cannot diverge.
// Callers hold mu.
func (c *Collector) persistShardLocked(span *trace.Span, shard *fo.Aggregate, resp SubmitResponse, id string, kind ShardKind) error {
	if c.store == nil {
		return nil
	}
	var recs []durable.Record
	if !c.pipelinePersisted && c.pipeline != nil {
		meta, err := json.Marshal(c.pipeline)
		if err != nil {
			return &storeError{err}
		}
		recs = append(recs, durable.Record{Type: durable.RecordPipeline, Meta: meta})
	}
	blob, err := shard.MarshalBinary()
	if err != nil {
		return &storeError{err}
	}
	env, err := json.Marshal(&ackEnvelope{Kind: kind.String(), Ack: resp})
	if err != nil {
		return &storeError{err}
	}
	recs = append(recs, durable.Record{Type: durable.RecordSubmission, ID: id, Meta: env, Blob: blob})
	walSpan := span.Child("collector.wal.append")
	info, err := c.store.Append(recs...)
	if err != nil {
		walSpan.Fail(err)
		walSpan.End()
		return &storeError{err}
	}
	walSpan.SetAttr(
		trace.Int("walRecords", int64(info.Records)),
		trace.Int("walBytes", info.Bytes),
		trace.Float("fsyncMs", float64(info.Fsync)/float64(time.Millisecond)),
	)
	walSpan.End()
	c.pipelinePersisted = c.pipeline != nil
	return nil
}

// maybeSnapshotLocked compacts the WAL into a snapshot once the replay
// cost of a crash reaches the configured cadence. A snapshot failure
// must not fail the submission that tripped it — the WAL already holds
// the record — so errors surface only through the store's stats.
// Callers hold mu.
func (c *Collector) maybeSnapshotLocked() {
	if c.store == nil {
		return
	}
	every := c.snapshotEvery()
	if every <= 0 {
		return
	}
	if c.store.RecordsSinceSnapshot() >= uint64(every) {
		_ = c.snapshotLocked()
	}
}

// snapshotLocked atomically persists the full collector state. Callers
// hold mu.
func (c *Collector) snapshotLocked() error {
	if c.store == nil || c.mech == nil {
		return nil
	}
	state, err := c.agg.MarshalBinary()
	if err != nil {
		return &storeError{err}
	}
	meta, err := json.Marshal(&snapshotMeta{
		Scheme:          c.mech.Scheme(),
		Pipeline:        c.pipeline,
		Generation:      c.generation,
		ReportShards:    c.stats.ReportShards,
		AggregateShards: c.stats.AggregateShards,
		DuplicateShards: c.stats.DuplicateShards,
	})
	if err != nil {
		return &storeError{err}
	}
	entries := c.acks.Entries()
	acks := make([]durable.AckEntry, 0, len(entries))
	for _, e := range entries {
		raw, err := json.Marshal(&e.Resp)
		if err != nil {
			return &storeError{err}
		}
		acks = append(acks, durable.AckEntry{ID: e.ID, Ack: raw})
	}
	if err := c.store.WriteSnapshot(meta, state, acks); err != nil {
		return &storeError{err}
	}
	// The snapshot now covers the pipeline; the (reset) WAL need not.
	c.pipelinePersisted = c.pipeline != nil
	return nil
}

// Snapshot forces an immediate durable snapshot of the collector state,
// compacting the WAL. It is a no-op on a collector without a store or
// before a mechanism is installed.
func (c *Collector) Snapshot() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}
