package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"dpspatial/internal/collector"
	"dpspatial/internal/fo"
	"dpspatial/internal/rng"
	"dpspatial/internal/trace"
)

// workloadDef describes one workload: its mechanism, deployment and
// sizes. A run does a fixed amount of work, sized from --seconds by the
// reference box's rate, so every count a run makes is exact.
type workloadDef struct {
	name  string
	mech  string
	fleet bool // two durable members under a supervisor; otherwise one durable collector
	full  sizes
	tiny  sizes
}

type sizes struct {
	// snapshotShards and tailShards are the seeding submissions per data
	// directory covered by the fixture's snapshot and left in its WAL
	// tail; bigReports the report count of each directory's first shard.
	snapshotShards, tailShards, bigReports int
	// opsPerSecond is the reference box's rate (ingest: submits,
	// refresh and fleet: cycles); fixedOps, when set, overrides it.
	opsPerSecond float64
	fixedOps     int
}

const (
	// refreshSubmits / refreshReads are the blob submits and cached
	// reads of one refresh cycle (plus its one fresh read).
	refreshSubmits, refreshReads = 8, 16
	// fleetSubmits is the routed blob submits of one fleet cycle;
	// fleetReads the cached reads each of the two readers issues after
	// the cycle's fresh read.
	fleetSubmits, fleetReads = 8, 8
	// setupRepeats is how many times the untraced pass sets up; setup_s
	// is the median.
	setupRepeats = 11
	// A traced run makes an untraced and a traced pass of its workload,
	// each tracedShare of a full pass, and traced passes of the two other
	// workloads, each supplementaryShare of a full pass.
	tracedShare, supplementaryShare = 0.5, 0.25
)

var workloads = map[string]*workloadDef{
	"ingest": {
		name: "ingest", mech: "DAM",
		full: sizes{snapshotShards: 65_536, tailShards: 100, bigReports: 10_000_000, opsPerSecond: 700},
		tiny: sizes{snapshotShards: 300, tailShards: 20, bigReports: 10_000_000, fixedOps: 40},
	},
	"refresh": {
		name: "refresh", mech: "DAM",
		full: sizes{snapshotShards: 1_024, tailShards: 100, bigReports: 1_000_000, opsPerSecond: 24},
		tiny: sizes{snapshotShards: 30, tailShards: 10, bigReports: 1_000_000, fixedOps: 3},
	},
	"fleet": {
		name: "fleet", mech: "SEM-Geo-I", fleet: true,
		full: sizes{snapshotShards: 1_024, tailShards: 50, bigReports: 1_000_000, opsPerSecond: 22},
		tiny: sizes{snapshotShards: 20, tailShards: 6, bigReports: 1_000_000, fixedOps: 3},
	},
}

var workloadOrder = []string{"ingest", "refresh", "fleet"}

func (w *workloadDef) dirs() int {
	if w.fleet {
		return 2
	}
	return 1
}

func (w *workloadDef) size(tiny bool) sizes {
	if tiny {
		return w.tiny
	}
	return w.full
}

// window is the op count ops_per_s is measured over: one snapshot
// period of ingest submits, or one refresh or fleet cycle.
func (w *workloadDef) window() int {
	switch w.name {
	case "ingest":
		return 256
	case "refresh":
		return refreshSubmits + 1 + refreshReads
	}
	return fleetSubmits + 1 + 2*fleetReads
}

// calls is the number of client calls a pass of ops makes; no daemon
// serves more requests than that in the loop (a fleet member serves a
// submit or a pull per call at most).
func (w *workloadDef) calls(ops int) int {
	if w.name == "ingest" {
		return ops
	}
	return ops * w.window()
}

// reads reports whether the workload serves estimates.
func (w *workloadDef) reads() bool { return w.name != "ingest" }

// ops is a pass's fixed work: submits on ingest (even, for the two
// clients), cycles elsewhere.
func (w *workloadDef) ops(tiny bool, seconds int, share float64) int {
	sz := w.size(tiny)
	n := sz.fixedOps
	if n == 0 {
		n = int(math.Round(float64(seconds) * sz.opsPerSecond * share))
	}
	if w.name == "ingest" {
		n += n % 2
	}
	return max(n, 2)
}

type opKind int

const (
	opSubmit opKind = iota
	opFresh
	opRead
	numKinds
)

var kindNames = [numKinds]string{"submit", "fresh", "read"}

// sample is one completed client call.
type sample struct {
	kind    opKind
	ms      float64
	end     time.Duration // completion, since the loop started
	traceID string
	err     error
}

// runInputs is everything a pass sends, generated from the run seed
// before timing starts.
type runInputs struct {
	bodies  [][]byte        // ingest NDJSON streams or blob shards, cycled
	aggs    []*fo.Aggregate // the in-process aggregate of each body
	queries []collector.QueryRequest
	ops     int
}

const bodyPool = 256

func genInputs(w *workloadDef, m *mechanism, seed uint64, ops int) (*runInputs, error) {
	r := rng.New(seed)
	in := &runInputs{ops: ops}
	n := min(bodyPool, ops*max(refreshSubmits, fleetSubmits))
	for i := 0; i < n; i++ {
		var body []byte
		var agg *fo.Aggregate
		var err error
		if w.name == "ingest" {
			body, agg, err = m.reportStream(r)
		} else {
			agg, body, err = m.denseShard(r)
		}
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
		in.aggs = append(in.aggs, agg)
	}
	in.queries = queryPool(r, 64)
	return in, nil
}

// submits is the number of submissions a pass makes.
func (w *workloadDef) submits(ops int) int {
	switch w.name {
	case "ingest":
		return ops
	case "refresh":
		return ops * refreshSubmits
	}
	return ops * fleetSubmits
}

// driveOps runs the pass's closed loop against the front daemon and
// returns every call it made, in no particular order, plus the EM
// iteration count of each fresh read. tr, when non-nil, records a
// client span around each call; the call carries that span's
// traceparent so the daemons' span trees join it.
func driveOps(ctx context.Context, w *workloadDef, url string, in *runInputs, seed uint64, genBase uint64, tr *trace.Tracer) (samples []sample, freshIters []int, err error) {
	loopStart := time.Now()
	var mu sync.Mutex
	var out []sample
	record := func(ss []sample) {
		mu.Lock()
		out = append(out, ss...)
		mu.Unlock()
	}
	call := func(c *collector.Client, kind opKind, name string, f func(ctx context.Context, c *collector.Client) error) sample {
		span := tr.Root(name, trace.SpanContext{})
		cctx := trace.ContextWithSpan(ctx, span)
		t0 := time.Now()
		err := f(cctx, c)
		end := time.Now()
		span.Fail(err)
		span.End()
		return sample{kind: kind, ms: float64(end.Sub(t0)) / float64(time.Millisecond), end: end.Sub(loopStart), traceID: span.TraceID(), err: err}
	}
	submit := func(c *collector.Client, i int) sample {
		body := in.bodies[i%len(in.bodies)]
		id := submissionID("run", seed, i)
		return call(c, opSubmit, "client.submit", func(ctx context.Context, c *collector.Client) error {
			var err error
			if w.name == "ingest" {
				_, err = c.SubmitReportStreamWithID(ctx, bytes.NewReader(body), id)
			} else {
				_, err = c.SubmitAggregateBlobWithID(ctx, body, nil, id)
			}
			return err
		})
	}
	// estimate and query check the served generation: every read must
	// see exactly the submissions acknowledged before it.
	estimate := func(c *collector.Client, kind opKind, gen uint64, iters *[]int) sample {
		return call(c, kind, "client."+kindNames[kind], func(ctx context.Context, c *collector.Client) error {
			_, resp, err := c.Estimate(ctx)
			if err != nil {
				return err
			}
			if resp.Generation != gen {
				return fmt.Errorf("estimate served generation %d, want %d", resp.Generation, gen)
			}
			if iters != nil {
				*iters = append(*iters, resp.Iterations)
			}
			return nil
		})
	}
	query := func(c *collector.Client, q collector.QueryRequest, gen uint64) sample {
		return call(c, opRead, "client.read", func(ctx context.Context, c *collector.Client) error {
			resp, err := c.Query(ctx, q)
			if err != nil {
				return err
			}
			if resp.Generation != gen {
				return fmt.Errorf("query served generation %d, want %d", resp.Generation, gen)
			}
			return nil
		})
	}

	var iters []int
	switch w.name {
	case "ingest":
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl := newClient(url)
				var ss []sample
				for i := c; i < in.ops; i += 2 {
					if ctx.Err() != nil {
						break
					}
					ss = append(ss, submit(cl, i))
				}
				record(ss)
			}(c)
		}
		wg.Wait()
	case "refresh":
		cl := newClient(url)
		gen := genBase
		var ss []sample
		for cyc := 0; cyc < in.ops && ctx.Err() == nil; cyc++ {
			for s := 0; s < refreshSubmits; s++ {
				ss = append(ss, submit(cl, cyc*refreshSubmits+s))
				gen++
			}
			ss = append(ss, estimate(cl, opFresh, gen, &iters))
			for q := 0; q < refreshReads; q++ {
				ss = append(ss, query(cl, in.queries[(cyc*refreshReads+q)%len(in.queries)], gen))
			}
		}
		record(ss)
	case "fleet":
		writer := newClient(url)
		readers := [2]*collector.Client{newClient(url), newClient(url)}
		var gen uint64 // a fresh supervisor counts its own routed submissions
		for cyc := 0; cyc < in.ops && ctx.Err() == nil; cyc++ {
			var ss []sample
			for s := 0; s < fleetSubmits; s++ {
				ss = append(ss, submit(writer, cyc*fleetSubmits+s))
				gen++
			}
			ss = append(ss, estimate(writer, opFresh, gen, &iters))
			record(ss)
			// Barrier: the readers start only after the fresh read, so the
			// cycle's one decode is never raced.
			var wg sync.WaitGroup
			for k, rc := range readers {
				wg.Add(1)
				go func(k int, rc *collector.Client) {
					defer wg.Done()
					var rs []sample
					for j := 0; j < fleetReads; j++ {
						if (j+k)%2 == 0 {
							rs = append(rs, estimate(rc, opRead, gen, nil))
						} else {
							rs = append(rs, query(rc, in.queries[(cyc*fleetReads+j+k)%len(in.queries)], gen))
						}
					}
					record(rs)
				}(k, rc)
			}
			wg.Wait()
		}
	}
	return out, iters, ctx.Err()
}
