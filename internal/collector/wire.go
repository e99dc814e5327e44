package collector

import (
	"bytes"
	"encoding/json"
	"fmt"

	"dpspatial/internal/durable"
	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
)

// The collector's wire formats are the ones the CLI pipeline already
// ships on disk and over pipes: line-oriented JSON report streams
// (opened by a Pipeline header line) and the deterministic DPA1/DPA2
// binary aggregate encodings of internal/fo. The HTTP service adds no
// new encoding — it frames the existing ones:
//
//	POST /v1/report     body = a reports stream (header line + NDJSON reports)
//	POST /v1/aggregate  body = a DPA1/DPA2 blob (octet-stream);
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
	// merging twice. The Client generates one per submission call.
	SubmissionIDHeader = "X-Dpspatial-Submission-Id"
	// SubmissionStateHeader, set to SubmissionStateUnknown on an error
	// response, marks a refusal whose submission MAY still have merged
	// (a lost member answer, a concurrent in-flight attempt). A
	// supervisor one tier up must not fail such a submission over to
	// another member — only a retry of the same ID is safe.
	SubmissionStateHeader  = "X-Dpspatial-Submission-State"
	SubmissionStateUnknown = "unknown"
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
// scheme and estimator configuration.
func (p *Pipeline) Compatible(q *Pipeline) error {
	if p.Scheme != q.Scheme {
		return fmt.Errorf("scheme %q does not match %q", q.Scheme, p.Scheme)
	}
	if p.Mech != q.Mech || p.D != q.D || p.Eps != q.Eps || p.EpsGeo != q.EpsGeo || p.Domain != q.Domain {
		return fmt.Errorf("pipeline metadata does not match")
	}
	return nil
}

// ParseStreamHead parses the first line of a report stream: a Pipeline
// header line (hdr set) or a bare first report (first set). Every error
// is the submitter's, a 400 at either tier.
func ParseStreamHead(line []byte) (hdr *Pipeline, first *fo.Report, err error) {
	if len(bytes.TrimSpace(line)) == 0 {
		return nil, nil, fmt.Errorf("empty report stream")
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
type AckLog struct {
	acks  map[string]SubmitResponse
	order []string
	cap   int
}

// NewAckLog returns a log remembering the last windowSize acks.
func NewAckLog(windowSize int) *AckLog {
	return &AckLog{acks: make(map[string]SubmitResponse), cap: windowSize}
}

// Get returns the remembered ack for id, marked as a duplicate.
func (l *AckLog) Get(id string) (SubmitResponse, bool) {
	if id == "" {
		return SubmitResponse{}, false
	}
	resp, ok := l.acks[id]
	if ok {
		resp.Duplicate = true
	}
	return resp, ok
}

// Entries returns the remembered acks in insertion order, oldest first
// — the serialization order a durable snapshot preserves so a restored
// log evicts in the same FIFO order as the original.
func (l *AckLog) Entries() []AckLogEntry {
	out := make([]AckLogEntry, 0, len(l.order))
	for _, id := range l.order {
		out = append(out, AckLogEntry{ID: id, Resp: l.acks[id]})
	}
	return out
}

// AckLogEntry is one remembered submission ack.
type AckLogEntry struct {
	ID   string
	Resp SubmitResponse
}

// Put remembers the ack for id, evicting the oldest entry past the cap.
func (l *AckLog) Put(id string, resp SubmitResponse) {
	if id == "" {
		return
	}
	if _, exists := l.acks[id]; !exists {
		l.order = append(l.order, id)
		if len(l.order) > l.cap {
			delete(l.acks, l.order[0])
			l.order = l.order[1:]
		}
	}
	l.acks[id] = resp
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
