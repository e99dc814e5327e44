package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"dpspatial"
	"dpspatial/internal/collector"
	"dpspatial/internal/fo"
	"dpspatial/internal/rng"
)

// Every request body is generated in process from a seed before timing
// starts. The generators below also pin the byte size of every body and
// WAL record, so the exact counts (WAL bytes per report, pull bytes per
// read) repeat across seeds: blob shards always encode dense, and report
// streams always carry the same number of distinct, equal-width indices.

// mechanism is the in-process twin of the daemons' mechanism: it draws
// the reports a run sends and computes the reference outputs.
type mechanism struct {
	rm dpspatial.ReportingMechanism
}

// loadMechanism builds the named mechanism over the unit square at
// d=15, ε=3.5 — the daemons' defaults — exactly as the daemons' own
// --mech flag does (the SEM-Geo-I calibration is memoized there).
func loadMechanism(name string) (*mechanism, error) {
	dom, err := dpspatial.NewDomain(0, 0, 1, gridSide)
	if err != nil {
		return nil, err
	}
	_, rm, err := dpspatial.NewCollectorPipeline(name, dom, epsilon)
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", name, err)
	}
	return &mechanism{rm: rm}, nil
}

const (
	gridSide = 15
	epsilon  = 3.5
	// streamReports is the report count of one ingest NDJSON stream.
	streamReports = 200
	// shardReports is the report count of one blob shard: enough that
	// its counts encode dense.
	shardReports = 4000
)

// userCell draws one user's grid cell: 70% from three hot spots, 30%
// uniform over the square, so every region of the grid sees reports.
func userCell(r *rng.RNG) int {
	x, y := r.Float64(), r.Float64()
	if r.Float64() < 0.7 {
		hot := [3][2]float64{{0.25, 0.3}, {0.7, 0.65}, {0.4, 0.8}}[r.Intn(3)]
		x = hot[0] + 0.12*r.NormFloat64()
		y = hot[1] + 0.12*r.NormFloat64()
	}
	cx := min(max(int(x*gridSide), 0), gridSide-1)
	cy := min(max(int(y*gridSide), 0), gridSide-1)
	return cy*gridSide + cx
}

// addUsers reports n users' cells through the mechanism into agg.
func (m *mechanism) addUsers(agg *fo.Aggregate, r *rng.RNG, n int) error {
	for i := 0; i < n; i++ {
		rep, err := m.rm.Report(userCell(r), r)
		if err != nil {
			return err
		}
		if err := agg.Add(rep); err != nil {
			return err
		}
	}
	return nil
}

// denseLen is the DPA2 size of an aggregate whose planes all encode
// dense — the size every blob shard of a run has.
func (m *mechanism) denseLen() int {
	scheme := m.rm.Scheme()
	shape := m.rm.ReportShape()
	n := 4 + uvarintLen(len(scheme)) + len(scheme) + uvarintLen(len(shape)) + 8
	for _, cells := range shape {
		n += 1 + uvarintLen(cells) + 8*cells
	}
	return n
}

func uvarintLen(v int) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], uint64(v))
}

// denseShard draws shardReports users into a shard whose blob encodes
// dense, redrawing from the same stream until it does.
func (m *mechanism) denseShard(r *rng.RNG) (*fo.Aggregate, []byte, error) {
	want := m.denseLen()
	for attempt := 0; attempt < 50; attempt++ {
		agg := m.rm.NewAggregate()
		if err := m.addUsers(agg, r, shardReports); err != nil {
			return nil, nil, err
		}
		blob, err := agg.MarshalBinary()
		if err != nil {
			return nil, nil, err
		}
		if len(blob) == want {
			return agg, blob, nil
		}
	}
	return nil, nil, fmt.Errorf("%s: no dense %d-report shard in 50 draws", m.rm.Scheme(), shardReports)
}

// tinyShard is a one-report shard: the cheap filler that grows a
// fixture's ack log.
func (m *mechanism) tinyShard(r *rng.RNG) (*fo.Aggregate, []byte, error) {
	agg := m.rm.NewAggregate()
	if err := m.addUsers(agg, r, 1); err != nil {
		return nil, nil, err
	}
	blob, err := agg.MarshalBinary()
	return agg, blob, err
}

// bigShard is a pre-aggregated shard of n reports: 100k drawn users,
// every count scaled by n/100k. It sets a fixture's report total, so
// the totals a run acknowledges never change their digit count.
func (m *mechanism) bigShard(r *rng.RNG, n int) (*fo.Aggregate, []byte, error) {
	const drawn = 100_000
	if n%drawn != 0 {
		return nil, nil, fmt.Errorf("big shard of %d reports is not a multiple of %d", n, drawn)
	}
	agg := m.rm.NewAggregate()
	if err := m.addUsers(agg, r, drawn); err != nil {
		return nil, nil, err
	}
	scale := float64(n / drawn)
	for _, plane := range agg.Planes {
		for i := range plane {
			plane[i] *= scale
		}
	}
	agg.N *= scale
	blob, err := agg.MarshalBinary()
	return agg, blob, err
}

// reportStream draws real reports until it holds streamReports of them
// with distinct indices in [128, 1000): every index is a two-byte varint
// and three JSON digits, so every stream and its WAL record have the
// same size. The stream is bare NDJSON report lines (the collector is
// already locked to its pipeline).
func (m *mechanism) reportStream(r *rng.RNG) ([]byte, *fo.Aggregate, error) {
	agg := m.rm.NewAggregate()
	seen := map[int]bool{}
	var body []byte
	for draws := 0; len(seen) < streamReports; draws++ {
		if draws > 1_000_000 {
			return nil, nil, fmt.Errorf("no %d-report stream in %d draws", streamReports, draws)
		}
		rep, err := m.rm.Report(userCell(r), r)
		if err != nil {
			return nil, nil, err
		}
		if len(rep.Planes) != 1 || len(rep.Planes[0]) != 1 {
			return nil, nil, fmt.Errorf("%s reports are not single-index", m.rm.Scheme())
		}
		idx := rep.Planes[0][0]
		if idx < 128 || idx >= 1000 || seen[idx] {
			continue
		}
		seen[idx] = true
		if err := agg.Add(rep); err != nil {
			return nil, nil, err
		}
		line, err := json.Marshal(&rep)
		if err != nil {
			return nil, nil, err
		}
		body = append(append(body, line...), '\n')
	}
	return body, agg, nil
}

// submissionID is a fixed-width idempotency ID, so ack envelopes — and
// with them WAL records — have the same size in every run.
func submissionID(tag string, scope uint64, i int) string {
	return fmt.Sprintf("%s-%012x-%015d", tag, scope&0xffffffffffff, i)
}

// queryPool is a seeded mix of range and top-k queries for cached reads.
func queryPool(r *rng.RNG, n int) []collector.QueryRequest {
	out := make([]collector.QueryRequest, n)
	for i := range out {
		if i%2 == 1 {
			out[i] = collector.QueryRequest{Type: collector.QueryTypeTopK, K: 1 + r.Intn(20)}
			continue
		}
		x0, x1 := r.Intn(gridSide), r.Intn(gridSide)
		y0, y1 := r.Intn(gridSide), r.Intn(gridSide)
		q := collector.QueryRequest{Type: collector.QueryTypeRange}
		q.Range.X0, q.Range.X1 = min(x0, x1), max(x0, x1)
		q.Range.Y0, q.Range.Y1 = min(y0, y1), max(y0, y1)
		out[i] = q
	}
	return out
}
