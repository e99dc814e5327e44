package collector

import (
	"net/http"
	"strconv"
	"time"

	"dpspatial/internal/metrics"
)

// The /metrics operator surface of the collector tier. Metric names are
// a stable contract — docs/OPERATIONS.md documents every series and
// CI's smoke jobs grep for them — so renaming one is a wire-format
// change. Both tiers' Engines register the same families through
// NewServiceMetrics, and the fleet supervisor layers its per-member
// series on top, which is what keeps one dashboard valid against both
// tiers.

// MetricsPath is the exposition endpoint both tiers serve. It sits
// behind the same bearer-token gate as the data endpoints, and is one
// of the paths InstrumentHTTP does NOT count — scraping must not
// perturb the series being scraped, or two scrapes of a quiesced
// service could never be byte-identical.
const MetricsPath = "/metrics"

// TracesPath is the completed-trace ring endpoint both tiers serve
// (GET, JSON, newest first; ?min_ms= / ?outcome= / ?limit= filters).
// Like MetricsPath it sits behind the bearer gate and is excluded from
// request accounting AND tracing: dumping the ring must not push new
// traces into it or perturb the /metrics series.
const TracesPath = "/v1/traces"

// PprofPathPrefix is where --pprof mounts net/http/pprof on both tiers
// — behind the bearer gate, excluded from accounting and tracing, and
// collapsed out of the path label space so profiling endpoints cannot
// widen metric cardinality.
const PprofPathPrefix = "/debug/pprof/"

// UntracedPath reports the paths the tracing middleware must pass
// through unrecorded: the observability surfaces themselves (metrics,
// traces, pprof) — reading them must not generate entries in what they
// expose — and health probes, whose per-cadence noise would evict every
// interesting trace from the bounded ring.
func UntracedPath(p string) bool {
	return p == MetricsPath || p == TracesPath || p == "/healthz" ||
		len(p) >= len(PprofPathPrefix) && p[:len(PprofPathPrefix)] == PprofPathPrefix
}

// Submission-outcome label values of dpspatial_submissions_total.
const (
	// SubmissionAccepted marks a shard merged into the canonical
	// aggregate (fleet tier: routed to a member that accepted it).
	SubmissionAccepted = "accepted"
	// SubmissionDuplicate marks a replayed submission ID answered from
	// the idempotency log without merging.
	SubmissionDuplicate = "duplicate"
	// SubmissionRefused marks a submission answered with a 4xx/5xx
	// status; dpspatial_submission_refusals_total splits it by code.
	SubmissionRefused = "refused"
)

// Cache-kind label values of the query-tier cache counters.
const (
	// CacheEstimate is the per-generation estimate decode backing
	// GET /v1/estimate and top-k queries.
	CacheEstimate = "estimate"
	// CacheTree is the per-generation quadtree decode backing range
	// queries on TreeEstimator mechanisms.
	CacheTree = "tree"
)

// Decode-mode label values of the EM decode series.
const (
	// DecodeCold marks a from-scratch EM decode.
	DecodeCold = "cold"
	// DecodeWarm marks a decode warm-started from the previous
	// generation's estimate.
	DecodeWarm = "warm"
)

// ServiceMetrics is the instrument set shared by the collector and the
// fleet supervisor: HTTP traffic, submission outcomes, query-tier cache
// behavior, and EM decode accounting. Both tiers register it against
// their own Registry so the family names and label schemas cannot
// diverge between them.
type ServiceMetrics struct {
	// Requests counts HTTP requests by normalized path and status code;
	// Latency is the matching per-path latency histogram.
	Requests *metrics.CounterVec
	Latency  *metrics.HistogramVec
	// Submissions counts submission outcomes (accepted / duplicate /
	// refused); SubmissionRefusals splits the refused outcome by HTTP
	// status code — the 400/409/503 refusal matrix as counters.
	Submissions        *metrics.CounterVec
	SubmissionRefusals *metrics.CounterVec
	// Queries counts served /v1/query answers by type (range / topk);
	// QueryRefusals counts refused ones by status code.
	Queries       *metrics.CounterVec
	QueryRefusals *metrics.CounterVec
	// QueryCacheHits / QueryCacheMisses count per-generation decode
	// cache behavior by cache kind (estimate / tree). A miss is a decode
	// actually run; a hit served the cached generation.
	QueryCacheHits   *metrics.CounterVec
	QueryCacheMisses *metrics.CounterVec
	// Decodes counts EM decodes by mode (cold / warm); DecodeSeconds
	// times them; DecodeIterations accumulates their EM iteration
	// counts; DecodeIterationsSaved accumulates the iterations warm
	// starts saved against the cold baseline.
	Decodes               *metrics.CounterVec
	DecodeSeconds         *metrics.HistogramVec
	DecodeIterations      *metrics.CounterVec
	DecodeIterationsSaved *metrics.Counter
}

// NewServiceMetrics registers the shared collector-tier families on reg.
func NewServiceMetrics(reg *metrics.Registry) *ServiceMetrics {
	return &ServiceMetrics{
		Requests: reg.CounterVec("dpspatial_http_requests_total",
			"HTTP requests served, by path and status code (the /metrics endpoint itself is not counted).",
			"path", "code"),
		Latency: reg.HistogramVec("dpspatial_http_request_seconds",
			"HTTP request latency in seconds, by path.",
			metrics.DefBuckets, "path"),
		Submissions: reg.CounterVec("dpspatial_submissions_total",
			"Shard submissions by outcome: accepted (merged), duplicate (replayed ID answered from the idempotency log), refused (4xx/5xx).",
			"outcome"),
		SubmissionRefusals: reg.CounterVec("dpspatial_submission_refusals_total",
			"Refused shard submissions by HTTP status code (400 malformed, 409 incompatible, 503 durability/partial-union).",
			"code"),
		Queries: reg.CounterVec("dpspatial_queries_total",
			"Served /v1/query answers by type (range, topk).",
			"type"),
		QueryRefusals: reg.CounterVec("dpspatial_query_refusals_total",
			"Refused /v1/query requests by HTTP status code.",
			"code"),
		QueryCacheHits: reg.CounterVec("dpspatial_query_cache_hits_total",
			"Per-generation decode cache hits by kind (estimate, tree): answers served without re-decoding.",
			"kind"),
		QueryCacheMisses: reg.CounterVec("dpspatial_query_cache_misses_total",
			"Per-generation decode cache misses by kind (estimate, tree): each miss runs one decode.",
			"kind"),
		Decodes: reg.CounterVec("dpspatial_decodes_total",
			"EM estimate decodes by mode (cold, warm).",
			"mode"),
		DecodeSeconds: reg.HistogramVec("dpspatial_decode_seconds",
			"EM estimate decode wall time in seconds, by mode (cold, warm).",
			metrics.DefBuckets, "mode"),
		DecodeIterations: reg.CounterVec("dpspatial_decode_iterations_total",
			"EM iterations run, accumulated by decode mode (cold, warm).",
			"mode"),
		DecodeIterationsSaved: reg.Counter("dpspatial_decode_iterations_saved_total",
			"EM iterations warm-started decodes saved relative to the cold baseline decode."),
	}
}

// statusRecorder captures the status code a handler wrote, defaulting
// to 200 when the handler never called WriteHeader explicitly.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// instrumentedPaths are the endpoints counted under their own path
// label; anything else collapses into "other" so request metrics stay
// bounded-cardinality no matter what clients probe for.
var instrumentedPaths = map[string]bool{
	"/healthz":      true,
	"/v1/report":    true,
	"/v1/aggregate": true,
	"/v1/estimate":  true,
	"/v1/query":     true,
	"/v1/stats":     true,
}

func normalizePath(p string) string {
	if instrumentedPaths[p] {
		return p
	}
	return "other"
}

// InstrumentHTTP wraps a tier's full handler chain (including the
// bearer-token gate, so 401s are counted) with request accounting:
// per-path request and latency series, plus the refused-submission and
// refused-query counters derived from the response status — which is
// what guarantees every writeError path in every handler is covered
// without instrumenting each one. Requests to MetricsPath, TracesPath
// and the pprof prefix pass through uncounted: scraping any
// observability surface must leave the request series byte-identical —
// the same exclusion set the tracing middleware applies (UntracedPath
// minus /healthz, which IS counted, just never traced).
func InstrumentHTTP(m *ServiceMetrics, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if p := r.URL.Path; p != "/healthz" && UntracedPath(p) {
			next.ServeHTTP(w, r)
			return
		}
		path := normalizePath(r.URL.Path)
		rec := &statusRecorder{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(rec, r)
		code := rec.status
		if code == 0 {
			code = http.StatusOK
		}
		m.Requests.With(path, strconv.Itoa(code)).Inc()
		m.Latency.With(path).Observe(time.Since(t0).Seconds())
		if code < 400 {
			return
		}
		switch {
		case r.Method == http.MethodPost && (path == "/v1/report" || path == "/v1/aggregate"):
			m.Submissions.With(SubmissionRefused).Inc()
			m.SubmissionRefusals.With(strconv.Itoa(code)).Inc()
		case path == "/v1/query":
			m.QueryRefusals.With(strconv.Itoa(code)).Inc()
		}
	})
}

// registerCollectorMetrics layers the collector-only series over the
// shared set: state gauges read under mu at scrape time, and — on a
// durable collector — the store counters read from Store.Stats(), which
// is how internal/durable is surfaced without depending on
// internal/metrics. Time-derived store fields (snapshot age) are
// deliberately not exported: they would break the quiesced-scrape
// determinism the golden test pins.
func (c *Collector) registerCollectorMetrics() {
	reg := c.engine.reg
	reg.GaugeFunc("dpspatial_generation",
		"Accepted-submission count of the canonical aggregate.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.generation)
		})
	reg.GaugeFunc("dpspatial_reports",
		"Total reports absorbed into the canonical aggregate.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			if c.agg == nil {
				return 0
			}
			return c.agg.N
		})
	reg.GaugeFunc("dpspatial_estimate_generation",
		"Generation the served estimate was decoded from (0 = no estimate yet).",
		func() float64 {
			_, gen := c.engine.DecodeStats()
			return float64(gen)
		})
	if c.store == nil {
		return
	}
	st := c.store
	reg.CounterFunc("dpspatial_durable_wal_records_appended_total",
		"WAL records appended by this process.",
		func() float64 { return float64(st.Stats().RecordsAppended) })
	reg.CounterFunc("dpspatial_durable_wal_bytes_written_total",
		"Bytes appended to the WAL by this process, headers included.",
		func() float64 { return float64(st.Stats().WALBytesWritten) })
	reg.CounterFunc("dpspatial_durable_wal_fsyncs_total",
		"Fsyncs issued on the WAL file: one per append batch plus one per post-snapshot reset.",
		func() float64 { return float64(st.Stats().WALFsyncs) })
	reg.CounterFunc("dpspatial_durable_snapshots_written_total",
		"Durable snapshots installed by this process.",
		func() float64 { return float64(st.Stats().SnapshotsWritten) })
	reg.GaugeFunc("dpspatial_durable_records_since_snapshot",
		"WAL records a crash right now would replay.",
		func() float64 { return float64(st.Stats().RecordsSinceSnapshot) })
	reg.GaugeFunc("dpspatial_durable_wal_records_replayed",
		"WAL records the startup recovery replayed.",
		func() float64 { return float64(st.Stats().RecordsReplayed) })
	reg.GaugeFunc("dpspatial_durable_torn_tail_bytes",
		"Bytes of an incomplete final WAL write discarded at startup recovery.",
		func() float64 { return float64(st.Stats().TornTailBytes) })
}

// Metrics returns the collector's metric registry — what GET /metrics
// serves, and the hook for embedding callers that mount the exposition
// elsewhere.
func (c *Collector) Metrics() *metrics.Registry { return c.engine.reg }
