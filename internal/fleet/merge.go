package fleet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"

	"dpspatial/internal/collector"
	"dpspatial/internal/fo"
	"dpspatial/internal/trace"
)

// The merge loop: the supervisor never sees individual reports after
// routing them — it pulls each member's canonical aggregate as a DPA2
// blob (GET /v1/aggregate, the same chaining primitive hierarchical
// collectors already used) and merges the blobs into the fleet
// aggregate. Because every member aggregate is itself a merge of the
// shards routed to it, the pull is a hierarchical merge of the union of
// all shards, and the cold first decode is byte-identical to an
// in-process EstimateFromAggregate over that union.

// memberDownError marks a pull that failed because a member holding
// routed submissions could not contribute its aggregate: serving an
// estimate without it would silently drop shards, so the supervisor
// answers 503 instead.
type memberDownError struct {
	url string
	err error
}

func (e *memberDownError) Error() string {
	return fmt.Sprintf("fleet member %s holds routed submissions but cannot serve its aggregate: %v", e.url, e.err)
}
func (e *memberDownError) Unwrap() error { return e.err }

// pullErrorStatus maps a pull error to an HTTP status: missing member
// data is 503, and everything else — a corrupt blob, a merge failure —
// is 502: a gateway-side data error that must NOT look like an empty
// member to the tier above. (The Engine answers the pre-adoption and
// no-reports refusals itself, 409 at both tiers, so stacking
// supervisors read them as "holds nothing yet".)
func pullErrorStatus(err error) int {
	if errors.As(err, new(*memberDownError)) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadGateway
}

// pullMerged fetches every member's canonical aggregate and merges them
// in fleet order. It returns the merged aggregate plus a hash over the
// raw member blobs, which names the fleet aggregate state: an unchanged
// hash across pulls means no member absorbed anything new, so the
// previous decode can be reused. Each member's answer sets its health
// (notePull) before anything is merged or refused, so one pull
// refreshes the whole fleet; each member has memberTimeout to answer.
//
// A member that answers 409 (no mechanism yet) contributes nothing and
// is skipped — unless the supervisor routed submissions to it or ever
// observed it holding data (shards may also reach members directly, or
// predate a supervisor restart), in which case its data is gone (a
// restart) and the pull fails rather than serving an estimate that
// silently misses shards. The same applies to unreachable members. The
// residual blind spot is a member that held data but was never once
// observed by this supervisor process before going down — closing it
// would take persisted membership state.
//
// The Engine pulls only once the fleet adopted a mechanism.
func (s *Supervisor) pullMerged(ctx context.Context) (*fo.Aggregate, uint64, error) {
	mech, _ := s.engine.Identity()
	// One span covers the whole fan-out pull + fold; a traced request
	// context records it, the cadence loop's background context no-ops.
	pullSpan := trace.SpanFrom(ctx).Child("fleet.pull")
	defer pullSpan.End()
	pullSpan.SetAttr(trace.Int("members", int64(len(s.members))))
	// Fetch every member concurrently — one slow member then delays the
	// pull by its own latency, not the fleet's sum — and fold the
	// results in fleet order, so the merge and its hash stay
	// deterministic.
	type pullResult struct {
		blob []byte
		err  error
	}
	results := make([]pullResult, len(s.members))
	var wg sync.WaitGroup
	for i, m := range s.members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			mctx, cancel := context.WithTimeout(ctx, memberTimeout)
			defer cancel()
			blob, err := m.client.FetchAggregateBlob(mctx)
			results[i] = pullResult{blob: blob, err: err}
			m.notePull(ctx, err)
		}(i, m)
	}
	wg.Wait()

	merged := mech.NewAggregate()
	h := fnv.New64a()
	var lenbuf [8]byte
	for i, m := range s.members {
		blob, err := results[i].blob, results[i].err
		if err != nil {
			if ctx.Err() != nil {
				return nil, 0, ctx.Err()
			}
			// A member without a mechanism (409) merged nothing, and an
			// unreachable one contributes nothing — fine unless we know
			// it ever held shards.
			if m.mayHoldData() {
				return nil, 0, &memberDownError{url: m.url, err: err}
			}
			continue
		}
		shard := &fo.Aggregate{}
		if err := shard.UnmarshalBinary(blob); err != nil {
			return nil, 0, fmt.Errorf("member %s served a bad aggregate: %w", m.url, err)
		}
		if shard.N > 0 {
			m.noteNonEmpty()
		} else if m.isNonEmpty() {
			// A successful pull of an EMPTY aggregate from a member
			// positively seen holding reports means the data is gone —
			// a restarted pre-built member answers 200 with N=0. Refuse
			// like an unreachable member rather than silently serving a
			// partial union.
			return nil, 0, &memberDownError{url: m.url,
				err: errors.New("member reports an empty aggregate after previously holding shards (restarted?)")}
		}
		if err := merged.Merge(shard); err != nil {
			return nil, 0, fmt.Errorf("member %s aggregate does not merge: %w", m.url, err)
		}
		binary.LittleEndian.PutUint64(lenbuf[:], uint64(len(blob)))
		_, _ = h.Write(lenbuf[:])
		_, _ = h.Write(blob)
	}
	return merged, h.Sum64(), nil
}

// mergedState is the supervisor's state source: a pull of every
// member's aggregate, keyed by the member-blob hash and reported at the
// routed-submission count. The key needs the pull, so the merged
// aggregate always comes with it.
func (s *Supervisor) mergedState(ctx context.Context, _ uint64, _ bool) (collector.State, error) {
	merged, hash, err := s.pullMerged(ctx)
	if err != nil {
		return collector.State{}, err
	}
	s.mu.Lock()
	routed := s.stats.Routed
	s.mu.Unlock()
	return collector.State{Key: hash, Gen: routed, N: merged.N, Agg: merged}, nil
}
