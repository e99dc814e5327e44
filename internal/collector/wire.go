package collector

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"

	"dpspatial/internal/durable"
	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
)

// The collector's wire formats are the ones the CLI pipeline already
// ships on disk and over pipes: line-oriented JSON report streams
// (opened by a Pipeline header line) and the deterministic DPA2 binary
// aggregate encoding of internal/fo. The HTTP service adds no new
// encoding — it frames the existing ones:
//
//	POST /v1/report     body = a reports stream (header line + NDJSON reports)
//	POST /v1/aggregate  body = a DPA2 blob (octet-stream);
//	                    optional X-Dpspatial-Pipeline header = Pipeline JSON
//	GET  /v1/aggregate  body = the merged canonical aggregate as a DPA2 blob
//	GET  /v1/estimate   body = EstimateResponse JSON
//	GET  /v1/stats      body = Stats JSON
//	GET  /healthz       body = health JSON
const (
	// ReportsFormat marks a report stream: one Pipeline header line, then
	// one JSON-encoded fo.Report per line.
	ReportsFormat = "dpspatial-reports/1"
	// AggregateFormat marks an aggregate envelope file: a single JSON
	// object holding a Pipeline plus the JSON-encoded aggregate.
	AggregateFormat = "dpspatial-aggregate/1"
	// PipelineHeader is the HTTP header that carries a JSON-encoded
	// Pipeline alongside a binary aggregate submission, so a collector
	// started without a mechanism can adopt one from the first shard.
	PipelineHeader = "X-Dpspatial-Pipeline"
	// SubmissionIDHeader carries a submission's idempotency ID: retries
	// of the same logical shard reuse the ID, and collectors and
	// supervisors answer a replay with the original ack instead of
	// merging twice. The Client generates one per submission call; both
	// tiers echo it on every submit answer, minting one for a request
	// that has none.
	SubmissionIDHeader = "X-Dpspatial-Submission-Id"
	// SubmissionStateHeader, set to SubmissionStateUnknown on an error
	// response, marks a refusal whose submission MAY still have merged
	// (a lost member answer, a concurrent in-flight attempt). A
	// supervisor one tier up must not fail such a submission over to
	// another member — only a retry of the same ID is safe.
	SubmissionStateHeader  = "X-Dpspatial-Submission-State"
	SubmissionStateUnknown = "unknown"
	// MaxBodyBytes caps a submission body at every tier: a larger one is
	// refused 400, and a retrying Client refuses it before sending.
	MaxBodyBytes = 64 << 20
)

// DomainSpec is the JSON shape of a square grid domain.
type DomainSpec struct {
	MinX float64 `json:"minX"`
	MinY float64 `json:"minY"`
	Side float64 `json:"side"`
}

// Pipeline is the metadata line shared by report streams and aggregate
// envelopes: everything a downstream stage needs to aggregate compatibly
// and rebuild the estimator. It is the same framing cmd/damctl has
// always written; the collector reuses it as the HTTP wire contract.
type Pipeline struct {
	Format string     `json:"format"`
	Mech   string     `json:"mech"`
	D      int        `json:"d"`
	Eps    float64    `json:"eps"`
	EpsGeo float64    `json:"epsGeo,omitempty"` // SEM-Geo-I calibrated budget
	Scheme string     `json:"scheme"`
	Shape  []int      `json:"shape"`
	Domain DomainSpec `json:"domain"`
}

// GridDomain rebuilds the grid domain the pipeline reports over.
func (p *Pipeline) GridDomain() (grid.Domain, error) {
	return grid.NewDomain(p.Domain.MinX, p.Domain.MinY, p.Domain.Side, p.D)
}

// Compatible reports whether two pipelines describe the same report
// scheme and estimator configuration. q's shape is compared when q
// carries one.
func (p *Pipeline) Compatible(q *Pipeline) error {
	if p.Scheme != q.Scheme {
		return fmt.Errorf("scheme %q does not match %q", q.Scheme, p.Scheme)
	}
	if q.Shape != nil && !slices.Equal(p.Shape, q.Shape) {
		return fmt.Errorf("shape %v does not match %v", q.Shape, p.Shape)
	}
	if p.Mech != q.Mech || p.D != q.D || p.Eps != q.Eps || p.EpsGeo != q.EpsGeo || p.Domain != q.Domain {
		return fmt.Errorf("pipeline metadata does not match")
	}
	return nil
}

// ParseStreamHead parses a report stream's first line, ignoring what
// follows it: a Pipeline header line (hdr set) or a bare first report
// (first set). Every error is the submitter's, a 400 at either tier.
func ParseStreamHead(line []byte) (hdr *Pipeline, first *fo.Report, err error) {
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	if len(bytes.TrimSpace(line)) == 0 {
		return nil, nil, fmt.Errorf("empty report stream")
	}
	if rep := new(fo.Report); scanReport(line, rep) {
		return nil, rep, nil
	}
	var probe struct {
		Format string `json:"format"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return nil, nil, fmt.Errorf("first line is neither a pipeline header nor a report: %v", err)
	}
	switch probe.Format {
	case ReportsFormat:
		hdr = &Pipeline{}
		if err := json.Unmarshal(line, hdr); err != nil {
			return nil, nil, fmt.Errorf("bad pipeline header: %v", err)
		}
		return hdr, nil, nil
	case "":
		first = &fo.Report{}
		if err := json.Unmarshal(line, first); err != nil {
			return nil, nil, fmt.Errorf("bad report line: %v", err)
		}
		return nil, first, nil
	default:
		return nil, nil, fmt.Errorf("unknown format %q", probe.Format)
	}
}

// ReadReports counts the report lines after a stream's head into agg.
// A byte scanner counts each line in the exact form json.Marshal writes
// for a fo.Report. The first line that is in another form, is longer
// than r's buffer or ends in a read error goes to a json.Decoder with
// the rest of the stream. The decoder reads the bytes it would have
// read from the stream's start, so it answers as it would have. An
// error of r itself is wrapped in its "bad report line" error.
func ReadReports(r *bufio.Reader, agg *fo.Aggregate) error {
	var rep fo.Report // scans every line: Add keeps nothing of it
	for {
		line, readErr := r.ReadSlice('\n')
		if readErr == io.EOF && len(line) == 0 {
			return nil
		}
		if (readErr != nil && readErr != io.EOF) || !scanReport(line, &rep) {
			// The decoder reads a copy of line, which the next read of r
			// overwrites, then the rest of r, or after a read error that
			// error again.
			var rest io.Reader = r
			if readErr != nil && readErr != bufio.ErrBufferFull {
				rest = errReader{readErr}
			}
			return decodeReports(io.MultiReader(bytes.NewReader(bytes.Clone(line)), rest), agg)
		}
		if err := agg.Add(rep); err != nil {
			return err
		}
	}
}

// decodeReports decodes the report values of r into agg.
func decodeReports(r io.Reader, agg *fo.Aggregate) error {
	dec := json.NewDecoder(r)
	var rep fo.Report // decodes every line: Add keeps nothing of it
	for {
		rep.Planes = rep.Planes[:0] // else a line without "planes" re-adds the last report
		if err := dec.Decode(&rep); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("bad report line: %w", err)
		}
		if err := agg.Add(rep); err != nil {
			return err
		}
	}
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// maxIndexDigits is the longest index scanReport reads: every number
// of that many digits fits an int (10^18 < 2^63, 10^9 < 2^31). A longer
// one goes to the decoder, which refuses one that overflows.
const maxIndexDigits = strconv.IntSize / 32 * 9

// scanReport reads line into rep, reusing rep's slices, when line is
// `{"planes":[` + planes + `]}` and at most one '\n': the bytes
// json.Marshal writes for a fo.Report. The planes are comma-separated,
// each null or an array of comma-separated indices, and an index is 0
// or a nonzero digit and more digits, at most maxIndexDigits in all. It
// reports false, leaving rep unspecified, for any other line.
func scanReport(line []byte, rep *fo.Report) bool {
	line = bytes.TrimSuffix(line, []byte("\n"))
	line, ok := bytes.CutPrefix(line, []byte(`{"planes":[`))
	if !ok {
		return false
	}
	if line, ok = bytes.CutSuffix(line, []byte("]}")); !ok {
		return false
	}
	planes := rep.Planes[:0]
	if planes == nil {
		planes = [][]int{} // as json.Unmarshal reads "[]"
	}
	for len(line) > 0 {
		if len(planes) > 0 {
			if line[0] != ',' {
				return false
			}
			line = line[1:]
		}
		if len(line) == 0 || line[0] != '[' {
			// json.Marshal's nil plane. Add reads an empty plane as a nil
			// one, so a reused slot keeps its plane's storage; a fresh
			// slot stays nil, as json.Unmarshal reads it.
			if line, ok = bytes.CutPrefix(line, []byte("null")); !ok {
				return false
			}
			p := len(planes)
			planes = slices.Grow(planes, 1)[:p+1]
			planes[p] = planes[p][:0]
			continue
		}
		line = line[1:]
		p := len(planes)
		planes = slices.Grow(planes, 1)[:p+1] // keeps a slot's old plane to reuse
		idxs := planes[p][:0]
		if idxs == nil {
			idxs = []int{}
		}
		for len(line) > 0 && line[0] != ']' {
			if len(idxs) > 0 {
				if line[0] != ',' {
					return false
				}
				line = line[1:]
			}
			j, k := 0, 0
			for ; k < len(line) && '0' <= line[k] && line[k] <= '9'; k++ {
				j = j*10 + int(line[k]-'0') // wraps only past maxIndexDigits
			}
			if k == 0 || k > maxIndexDigits || k > 1 && line[0] == '0' {
				return false
			}
			idxs = append(idxs, j)
			line = line[k:]
		}
		if len(line) == 0 {
			return false
		}
		line = line[1:] // the plane's ']'
		planes[p] = idxs
	}
	rep.Planes = planes
	return true
}

// SubmitResponse acknowledges an accepted shard submission.
type SubmitResponse struct {
	// Scheme is the report scheme the collector is locked to.
	Scheme string `json:"scheme"`
	// Reports is the number of reports the submitted shard carried.
	Reports float64 `json:"reports"`
	// TotalReports is the report count of the merged canonical aggregate
	// after this submission.
	TotalReports float64 `json:"totalReports"`
	// Generation counts accepted submissions; it names the aggregate
	// state an estimate was decoded from. A fleet supervisor reports its
	// own routed-submission count here.
	Generation uint64 `json:"generation"`
	// TraceID is the distributed trace ID of the request that first
	// merged this submission — the key into GET /v1/traces at every
	// tier the submission crossed. A replayed (Duplicate) ack carries
	// the ORIGINAL submission's trace ID, whose trace holds the merge
	// spans; empty on collectors running with tracing disabled.
	TraceID string `json:"traceId,omitempty"`
	// Member, set only by a fleet supervisor, is the base URL of the
	// collector the submission was routed to.
	Member string `json:"member,omitempty"`
	// Duplicate marks a replayed submission ID: the shard had already
	// merged, and this ack repeats the original one.
	Duplicate bool `json:"duplicate,omitempty"`
}

// AckLog is a FIFO-bounded idempotency log: the acks of the most recent
// submissions, keyed by submission ID. Collectors and supervisors
// consult it so a retried shard — same ID, replayed after a lost
// response — merges exactly once. The bound caps memory; a retry
// arriving after more than windowSize newer submissions would re-merge,
// which at that depth means the client waited far past any sane backoff.
//
// Each ack is held as its JSON encoding, made once when the ack is: a
// durable snapshot writes those bytes as they are, and only a replay
// decodes them.
type AckLog struct {
	entries []durable.AckEntry // oldest first
	index   map[string]int     // ID → position in entries plus evicted
	evicted int                // entries dropped off the front so far
	cap     int
}

// NewAckLog returns a log remembering the last windowSize acks.
func NewAckLog(windowSize int) *AckLog {
	return &AckLog{index: make(map[string]int), cap: windowSize}
}

// Get returns the remembered ack for id, marked as a duplicate.
func (l *AckLog) Get(id string) (SubmitResponse, bool) {
	i, ok := l.index[id]
	if !ok {
		return SubmitResponse{}, false
	}
	var resp SubmitResponse
	if err := json.Unmarshal(l.entries[i-l.evicted].Ack, &resp); err != nil {
		// Put's callers store json.Marshal output or bytes recovery
		// already checked decode, so this is corrupted memory.
		panic(fmt.Sprintf("collector: stored ack %q does not decode: %v", id, err))
	}
	resp.Duplicate = true
	return resp, true
}

// Entries returns the remembered acks in insertion order, oldest first
// — the serialization order a durable snapshot preserves so a restored
// log evicts in the same FIFO order as the original. The slice is the
// log's own, valid until the next Put.
func (l *AckLog) Entries() []durable.AckEntry { return l.entries }

// Put remembers ack, the JSON encoding of a SubmitResponse, for id,
// evicting the oldest entry past the cap.
func (l *AckLog) Put(id string, ack []byte) {
	if id == "" {
		return
	}
	if i, ok := l.index[id]; ok {
		l.entries[i-l.evicted].Ack = ack
		return
	}
	l.index[id] = l.evicted + len(l.entries)
	l.entries = append(l.entries, durable.AckEntry{ID: id, Ack: ack})
	if len(l.entries) > l.cap {
		delete(l.index, l.entries[0].ID)
		l.entries[0] = durable.AckEntry{}
		l.entries = l.entries[1:]
		l.evicted++
	}
}

// restore fills an empty log with a snapshot's acks, oldest first, as
// Put would one by one, but into an index sized for them, so a full log
// does not grow it. A snapshot's IDs are normally non-empty, distinct
// and no more than the cap, as Put left them; then each costs one map
// insert, and the log takes the snapshot's slice as its entries. Any
// other snapshot goes through Put's rules.
func (l *AckLog) restore(acks []durable.AckEntry) {
	l.index = make(map[string]int, len(acks))
	if len(acks) <= l.cap {
		for i, e := range acks {
			if e.ID == "" {
				break
			}
			l.index[e.ID] = i
		}
		// A duplicate or an empty ID leaves the index short.
		if len(l.index) == len(acks) {
			l.entries = acks
			return
		}
		clear(l.index)
	}
	l.entries = make([]durable.AckEntry, 0, len(acks))
	for _, e := range acks {
		l.Put(e.ID, e.Ack)
	}
}

// EstimateResponse is the JSON envelope GET /v1/estimate serves. Mass is
// JSON-marshalled by Go with the shortest round-tripping representation,
// so the decoded histogram is bit-identical to the server's.
type EstimateResponse struct {
	Scheme     string     `json:"scheme"`
	Generation uint64     `json:"generation"`
	Reports    float64    `json:"reports"`
	D          int        `json:"d"`
	Domain     DomainSpec `json:"domain"`
	Mass       []float64  `json:"mass"`
	// Iterations is the EM iteration count of the decode that produced
	// this estimate; Warm reports whether it was warm-started from the
	// previous generation's estimate.
	Iterations int  `json:"iterations"`
	Warm       bool `json:"warm"`
}

// Histogram rebuilds the estimate as a grid histogram.
func (e *EstimateResponse) Histogram() (*grid.Hist2D, error) {
	dom, err := grid.NewDomain(e.Domain.MinX, e.Domain.MinY, e.Domain.Side, e.D)
	if err != nil {
		return nil, err
	}
	return grid.HistFromMass(dom, e.Mass)
}

// Stats is the JSON body of GET /v1/stats.
type Stats struct {
	// Scheme is empty until the collector adopts a mechanism.
	Scheme string `json:"scheme"`
	// Generation counts accepted shard submissions.
	Generation uint64 `json:"generation"`
	// AggregateShards counts accepted POST /v1/aggregate submissions,
	// ReportShards accepted POST /v1/report streams, and
	// DuplicateShards replayed submission IDs answered from the
	// idempotency log without merging.
	AggregateShards uint64 `json:"aggregateShards"`
	ReportShards    uint64 `json:"reportShards"`
	DuplicateShards uint64 `json:"duplicateShards,omitempty"`
	// Reports is the total report count absorbed into the canonical
	// aggregate.
	Reports float64 `json:"reports"`
	// DecodeCounters is the per-decode accounting (cold/warm decodes,
	// iterations saved), shared with the fleet supervisor's stats.
	DecodeCounters
	// EstimateGeneration is the generation the served estimate was
	// decoded from (0 = no estimate yet).
	EstimateGeneration uint64 `json:"estimateGeneration"`
	// CadenceMillis is the configured background merge cadence
	// (0 = refresh only on demand).
	CadenceMillis int64 `json:"cadenceMillis"`
	// Durability reports the snapshot/WAL counters of a collector
	// running with a durable store (nil when running in-memory only):
	// records replayed at the last recovery, snapshot age, recovery
	// duration — the operator surface for recovery health.
	Durability *durable.Stats `json:"durability,omitempty"`
}

// DecodeCounters is the estimate-decode accounting block the collector
// and fleet supervisor stats envelopes embed, so the iterations-saved
// arithmetic cannot diverge between the tiers.
type DecodeCounters struct {
	// Estimates counts EM decodes run (cold and warm); WarmEstimates the
	// warm-started subset.
	Estimates     uint64 `json:"estimates"`
	WarmEstimates uint64 `json:"warmEstimates"`
	// LastIterations is the EM iteration count of the most recent decode;
	// ColdBaselineIterations the count of the first (cold) decode.
	LastIterations         int `json:"lastIterations"`
	ColdBaselineIterations int `json:"coldBaselineIterations"`
	// IterationsSaved accumulates, over the warm refreshes, how many EM
	// iterations the warm start saved relative to the cold baseline
	// decode — the dividend of incremental re-estimation.
	IterationsSaved uint64 `json:"iterationsSaved"`
}

// Account records one decode's outcome in the counters and returns the
// iterations a warm start saved against the cold baseline.
func (d *DecodeCounters) Account(iters int, warm bool) (saved uint64) {
	d.Estimates++
	d.LastIterations = iters
	if warm {
		d.WarmEstimates++
		if s := d.ColdBaselineIterations - iters; s > 0 {
			saved = uint64(s)
			d.IterationsSaved += saved
		}
	} else if d.ColdBaselineIterations == 0 {
		d.ColdBaselineIterations = iters
	}
	return saved
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}
