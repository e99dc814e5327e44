package collector

import (
	"encoding/json"
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
//   - snapshot State = the canonical aggregate's DPA2 binary encoding —
//     deterministic, so a recovered aggregate is byte-identical to the
//     one that was snapshotted;
//   - snapshot Acks  = the idempotency log, each ack a SubmitResponse
//     JSON, oldest first so FIFO eviction resumes in order. Recovery
//     checks each ack, not decodes it: one that json.Unmarshal would
//     refuse refuses recovery, so a replay's decode cannot fail;
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
// the idempotency log and the per-kind counters exactly. Ack holds the
// bytes the ack log stores, so the ack is encoded once.
type ackEnvelope struct {
	Kind string          `json:"kind"`
	Ack  json.RawMessage `json:"ack"`
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

// Count adds one accepted shard of this kind to s.
func (k ShardKind) Count(s *Stats) {
	if k == ShardReport {
		s.ReportShards++
	} else {
		s.AggregateShards++
	}
}

// storeFailure wraps a failure of the durability layer. A submission it
// fails is refused 503 (retry later), not 409 (the shard is wrong), with
// the submission state unknown: the WAL write may have partly persisted,
// so only a retry of the SAME submission ID is safe, never a failover.
func storeFailure(err error) error {
	return &Refusal{Status: http.StatusServiceUnavailable, Unknown: true, Err: fmt.Errorf("durable store: %w", err)}
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
		mech, _ := c.engine.Identity()
		if err := agg.Compatible(mech); err != nil {
			return fmt.Errorf("snapshot aggregate does not fit the collector mechanism: %w", err)
		}
		c.agg = agg
		c.generation = meta.Generation
		c.stats.ReportShards = meta.ReportShards
		c.stats.AggregateShards = meta.AggregateShards
		c.stats.DuplicateShards = meta.DuplicateShards
		for _, e := range snap.Acks {
			if err := checkAck(e.Ack); err != nil {
				return fmt.Errorf("snapshot ack %q: %w", e.ID, err)
			}
		}
		c.acks.restore(snap.Acks)
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
			mech, _ := c.engine.Identity()
			if mech == nil {
				return fmt.Errorf("WAL record %d is a submission but no mechanism is configured and no pipeline record precedes it", r.Seq)
			}
			var env ackEnvelope
			var ack SubmitResponse
			if err := json.Unmarshal(r.Meta, &env); err != nil {
				return fmt.Errorf("WAL record %d ack envelope: %w", r.Seq, err)
			}
			if err := json.Unmarshal(env.Ack, &ack); err != nil {
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
			if err := shard.Compatible(mech); err != nil {
				return fmt.Errorf("WAL record %d shard does not fit the mechanism: %w", r.Seq, err)
			}
			if err := c.agg.Merge(shard); err != nil {
				return fmt.Errorf("WAL record %d: %w", r.Seq, err)
			}
			c.generation++
			if ack.Generation != c.generation || ack.TotalReports != c.agg.N {
				return fmt.Errorf("WAL record %d ack (generation %d, %g reports) does not match the replayed state (generation %d, %g reports): the log belongs to different state", r.Seq, ack.Generation, ack.TotalReports, c.generation, c.agg.N)
			}
			kind.Count(&c.stats)
			c.acks.Put(r.ID, env.Ack)
		default:
			return fmt.Errorf("WAL record %d has unknown type %d", r.Seq, r.Type)
		}
	}
	c.store.NoteRecovered()
	return nil
}

// checkAck returns the error of json.Unmarshal of ack into a
// SubmitResponse, which AckLog.Get runs on a replay. An ack in the form
// json.Marshal writes is accepted without decoding it: scanAck accepts
// only bytes that json.Unmarshal accepts.
func checkAck(ack []byte) error {
	if scanAck(ack) {
		return nil
	}
	var resp SubmitResponse
	return json.Unmarshal(ack, &resp)
}

// Longest numbers scanAck reads: every count of 15 digits is an exact
// float64, and every generation of 19 digits is below 2^64.
const (
	maxCountDigits      = 15
	maxGenerationDigits = 19
)

// scanAck reports whether b is `{"scheme":`S`,"reports":`N
// `,"totalReports":`N`,"generation":`G, then optionally and in this
// order `,"traceId":`S, `,"member":`S and `,"duplicate":true`, then `}`:
// the bytes json.Marshal writes for a SubmitResponse whose strings need
// no escape. S is a string of bytes from 0x20 up other than '"' and
// '\', N and G are 0 or a nonzero digit and more digits, at most
// maxCountDigits and maxGenerationDigits in all. It reports false for
// any other b, which json.Unmarshal may still accept.
func scanAck(b []byte) bool {
	b, ok := cutString(b, `{"scheme":`)
	if ok {
		b, ok = cutNumber(b, `,"reports":`, maxCountDigits)
	}
	if ok {
		b, ok = cutNumber(b, `,"totalReports":`, maxCountDigits)
	}
	if ok {
		b, ok = cutNumber(b, `,"generation":`, maxGenerationDigits)
	}
	if !ok {
		return false
	}
	// An optional field that is there but not scanned stays in b, so b
	// does not end as "}" below.
	if rest, ok := cutString(b, `,"traceId":`); ok {
		b = rest
	}
	if rest, ok := cutString(b, `,"member":`); ok {
		b = rest
	}
	if rest, ok := cutKey(b, `,"duplicate":true`); ok {
		b = rest
	}
	return string(b) == "}"
}

// cutKey cuts key off the front of b.
func cutKey(b []byte, key string) ([]byte, bool) {
	if len(b) < len(key) || string(b[:len(key)]) != key {
		return nil, false
	}
	return b[len(key):], true
}

// cutString cuts key and a JSON string without escapes off the front
// of b.
func cutString(b []byte, key string) ([]byte, bool) {
	b, ok := cutKey(b, key)
	if !ok || len(b) == 0 || b[0] != '"' {
		return nil, false
	}
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return b[i+1:], true
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// cutNumber cuts key and a JSON integer of at most max digits, with no
// sign and no leading zero, off the front of b.
func cutNumber(b []byte, key string, max int) ([]byte, bool) {
	b, ok := cutKey(b, key)
	k := 0
	for k < len(b) && '0' <= b[k] && b[k] <= '9' {
		k++
	}
	if !ok || k == 0 || k > max || k > 1 && b[0] == '0' {
		return nil, false
	}
	return b[k:], true
}

// installRecoveredMechanism reconciles recovered metadata with the
// tier's identity by the submit path's rule: the stored pipeline must
// pass the pin, or, before adoption, rebuilds and installs the
// mechanism exactly as the original adoption did. A mismatch means the
// data directory belongs to a different deployment, and merging foreign
// state would silently corrupt every later estimate, so it refuses.
func (c *Collector) installRecoveredMechanism(scheme string, p *Pipeline) error {
	if mech, _ := c.engine.Identity(); mech != nil && scheme != "" && scheme != mech.Scheme() {
		return fmt.Errorf("stored state has scheme %q, collector is configured for %q: foreign data directory", scheme, mech.Scheme())
	}
	mech, candidate, err := c.engine.Resolve(p)
	if err == nil && candidate {
		err = c.installLocked(mech, p)
	}
	if err != nil {
		return fmt.Errorf("stored pipeline: %w", err)
	}
	// The store already holds the pin, or the configuration does; don't
	// re-log it.
	c.pipelinePersisted = true
	return nil
}

// persistShardLocked appends the WAL records for one accepted
// submission — the pipeline pin first, if the store does not hold it
// yet, then the submission itself — as a single fsync'd batch. It runs
// after all validation and BEFORE the merge: once it returns nil the
// submission is durable, and since shard.Compatible already passed, the
// merge that follows cannot fail, so memory and disk cannot diverge.
// ack is the submission's encoded SubmitResponse. Callers hold mu.
func (c *Collector) persistShardLocked(span *trace.Span, shard *fo.Aggregate, ack []byte, id string, kind ShardKind) error {
	if c.store == nil {
		return nil
	}
	var recs []durable.Record
	if !c.pipelinePersisted {
		_, pin := c.engine.Identity()
		meta, err := json.Marshal(pin)
		if err != nil {
			return storeFailure(err)
		}
		recs = append(recs, durable.Record{Type: durable.RecordPipeline, Meta: meta})
	}
	blob, err := shard.MarshalBinary()
	if err != nil {
		return storeFailure(err)
	}
	env, err := json.Marshal(&ackEnvelope{Kind: kind.String(), Ack: ack})
	if err != nil {
		return storeFailure(err)
	}
	recs = append(recs, durable.Record{Type: durable.RecordSubmission, ID: id, Meta: env, Blob: blob})
	walSpan := span.Child("collector.wal.append")
	info, err := c.store.Append(recs...)
	if err != nil {
		walSpan.Fail(err)
		walSpan.End()
		return storeFailure(err)
	}
	walSpan.SetAttr(
		trace.Int("walRecords", int64(info.Records)),
		trace.Int("walBytes", info.Bytes),
		trace.Float("fsyncMs", float64(info.Fsync)/float64(time.Millisecond)),
	)
	walSpan.End()
	c.pipelinePersisted = true
	return nil
}

// maybeSnapshotLocked compacts the WAL into a snapshot once the replay
// cost of a crash reaches the configured cadence, inside a
// collector.snapshot child of span. A snapshot failure must not fail
// the submission that tripped it — the WAL already holds the record —
// so errors surface only through the span and the store's stats, and
// the next attempt waits for another cadence's worth of records rather
// than rewriting the whole ack log on every submission. Callers hold
// mu.
func (c *Collector) maybeSnapshotLocked(span *trace.Span) {
	if c.store == nil {
		return
	}
	every := c.snapshotEvery()
	if every <= 0 || c.store.RecordsSinceSnapshot() < c.snapshotTriedAt+uint64(every) {
		return
	}
	snapSpan := span.Child("collector.snapshot")
	snapSpan.SetAttr(trace.Int("acks", int64(len(c.acks.Entries()))))
	snapSpan.Fail(c.snapshotLocked())
	snapSpan.End()
}

// snapshotLocked atomically persists the full collector state and
// notes where the attempt left the WAL for maybeSnapshotLocked's
// retry spacing. Callers hold mu.
func (c *Collector) snapshotLocked() error {
	mech, pin := c.engine.Identity()
	if c.store == nil || mech == nil {
		return nil
	}
	defer func() { c.snapshotTriedAt = c.store.RecordsSinceSnapshot() }()
	state, err := c.agg.MarshalBinary()
	if err != nil {
		return storeFailure(err)
	}
	meta, err := json.Marshal(&snapshotMeta{
		Scheme:          mech.Scheme(),
		Pipeline:        pin,
		Generation:      c.generation,
		ReportShards:    c.stats.ReportShards,
		AggregateShards: c.stats.AggregateShards,
		DuplicateShards: c.stats.DuplicateShards,
	})
	if err != nil {
		return storeFailure(err)
	}
	if err := c.store.WriteSnapshot(meta, state, c.acks.Entries()); err != nil {
		return storeFailure(err)
	}
	// The snapshot now covers the pin; the (reset) WAL need not.
	c.pipelinePersisted = true
	return nil
}
