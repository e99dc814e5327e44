package collector

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
	"dpspatial/internal/metrics"
	"dpspatial/internal/rangequery"
	"dpspatial/internal/trace"
)

// The read path both serving tiers share. A collector and a fleet
// supervisor differ in how they come by their merged aggregate — a
// clone of the local canonical aggregate versus a pull-and-merge over
// the members — and in nothing after that. So each tier hands an Engine
// a StateSource, and the Engine owns everything downstream of it: the
// per-state estimate and quadtree caches, decode accounting and
// metrics, the decode spans, the GET /v1/estimate and /v1/query
// handlers, the cadence loop, and the one request path — bearer gate,
// request accounting, tracing and slow log — around every handler. The
// write path follows the same pattern (submit.go): each tier supplies
// its commit, and the Engine serves the submission endpoints around it.
//
// The Engine also holds the tier's identity: the one mechanism and the
// pipeline it is pinned to. A decode inverts one fixed randomizer over
// one fixed grid and domain, so a tier merges only shards collected
// under that pair, and both tiers adopt it by one rule (identity.go).

// State is one read of a tier's merged state.
type State struct {
	// Key names the merged state: equal keys mean a byte-identical
	// aggregate, so a decode cached under the key can be served again.
	Key uint64
	// Gen is the generation reported for a decode of this state.
	Gen uint64
	// N is the state's report count.
	N float64
	// Agg is the aggregate to decode. A source may leave it nil when Key
	// equals the cached key it was handed.
	Agg *fo.Aggregate
}

// StateSource reads a tier's current merged state. cached is the key of
// the decode the engine holds for this read, valid only when ok. The
// Engine reads a source only once the tier adopted a mechanism, and
// refuses a state without reports itself.
type StateSource func(ctx context.Context, cached uint64, ok bool) (State, error)

// EngineConfig wires an Engine.
type EngineConfig struct {
	// Tier prefixes the decode span names ("collector" → collector.em.decode)
	// and names the tier in refusals; Service names the tracer's tier and
	// the /healthz role.
	Tier, Service string
	// Mechanism and Pipeline are the identity of a tier that starts
	// pinned; Pipeline is required with Mechanism. Build, when Mechanism
	// is nil, builds the candidate mechanism of a submission's pipeline
	// metadata until the tier adopts one (identity.go).
	Mechanism Estimator
	Pipeline  *Pipeline
	Build     func(p *Pipeline) (Estimator, error)
	// Source reads the tier's merged state.
	Source StateSource
	// ErrorStatus maps an error of Source or Aggregate to its HTTP status
	// (nil: 409). The Engine's own read refusals — before adoption, and
	// of a state without reports — are 409 at every tier.
	ErrorStatus func(error) int
	// Replay, Commit and Aggregate are the tier's write path. With Commit
	// set, the Engine serves POST /v1/report and /v1/aggregate and GET
	// /v1/aggregate over them. Replay answers a replayed submission ID
	// from the tier's ack log, counting the duplicate; Commit merges or
	// forwards a parsed submission and returns its ack; Aggregate returns
	// the merged aggregate as a DPA2 blob. The Engine calls Aggregate
	// only once the tier adopted a mechanism.
	Replay    func(ctx context.Context, id string) (SubmitResponse, bool)
	Commit    func(ctx context.Context, sub *Submission) (SubmitResponse, error)
	Aggregate func(ctx context.Context) ([]byte, error)
	// Routes are the tier's own handlers, by path.
	Routes map[string]http.HandlerFunc
	// Cadence is the background refresh period (0 = no loop).
	Cadence time.Duration
	// The serving options of the tier's Config.
	AuthToken     string
	DisableTraces bool
	TraceCapacity int
	SlowLog       *trace.SlowLogger
	EnablePprof   bool
}

// Engine is the shared read path of a serving tier. It implements
// http.Handler over the tier's full route set.
type Engine struct {
	cfg    EngineConfig
	mux    *http.ServeMux
	routes map[string]bool // registered routes: each counts under its own request-series label
	reg    *metrics.Registry
	met    *ServiceMetrics
	tracer *trace.Tracer // nil when tracing is disabled

	// idMu guards the tier's identity: mech and the pin it was adopted
	// with, set together and once.
	idMu sync.Mutex
	mech Estimator
	pin  *Pipeline

	// decodeMu serialises state reads and decodes, so concurrent reads
	// never duplicate a decode; the tier's submissions proceed
	// meanwhile. It guards cache.
	decodeMu sync.Mutex
	// cache holds the latest decode by kind: CacheEstimate backs
	// /v1/estimate and top-k, CacheTree TreeEstimator range queries.
	cache map[string]*view

	// mu guards the decode accounting /v1/stats and /metrics read.
	mu       sync.Mutex
	counters DecodeCounters
	estGen   uint64 // generation of the cached estimate (0 = none yet)

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// view is one cached decode: an estimate (est) or a quadtree (tree) of
// the state named key.
type view struct {
	key, gen uint64
	n        float64
	scheme   string
	est      *grid.Hist2D
	iters    int
	warm     bool
	tree     *rangequery.Quadtree
}

// NewEngine builds the engine and routes the tier's handlers.
func NewEngine(cfg EngineConfig) *Engine {
	e := &Engine{cfg: cfg, mux: http.NewServeMux(), routes: map[string]bool{},
		reg: metrics.New(), cache: map[string]*view{}, stop: make(chan struct{})}
	e.met = NewServiceMetrics(e.reg)
	if cfg.Mechanism != nil {
		_ = e.Adopt(cfg.Mechanism, cfg.Pipeline) // nothing adopted yet: it installs
	}
	if !cfg.DisableTraces {
		e.tracer = trace.NewTracer(cfg.Service, cfg.TraceCapacity)
	}
	handle := func(path string, h http.HandlerFunc) {
		e.mux.HandleFunc(path, h)
		e.routes[path] = true
	}
	for path, h := range cfg.Routes {
		handle(path, h)
	}
	handle("/healthz", MethodOnly(http.MethodGet, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "role": cfg.Service, "scheme": e.scheme()})
	}))
	if cfg.Commit != nil {
		handle("/v1/report", MethodOnly(http.MethodPost, func(w http.ResponseWriter, r *http.Request) {
			e.submit(w, r, ShardReport)
		}))
		handle("/v1/aggregate", e.handleAggregate)
	}
	handle("/v1/estimate", MethodOnly(http.MethodGet, e.handleEstimate))
	handle("/v1/query", MethodOnly(http.MethodGet, e.handleQuery))
	e.mux.Handle(MetricsPath, e.reg.Handler())
	if e.tracer != nil {
		e.mux.Handle(TracesPath, e.tracer.Handler())
	}
	if cfg.EnablePprof {
		// Inside the bearer gate — profiles leak code layout and timing —
		// and outside request accounting and tracing, so a profile run
		// perturbs neither the /metrics series nor the trace ring.
		e.mux.HandleFunc(PprofPathPrefix, pprof.Index)
		e.mux.HandleFunc(PprofPathPrefix+"cmdline", pprof.Cmdline)
		e.mux.HandleFunc(PprofPathPrefix+"profile", pprof.Profile)
		e.mux.HandleFunc(PprofPathPrefix+"symbol", pprof.Symbol)
		e.mux.HandleFunc(PprofPathPrefix+"trace", pprof.Trace)
	}
	return e
}

// ServeHTTP is the one request path of a serving tier. Every path but
// /healthz is behind the bearer gate. The observability surfaces —
// /metrics, /v1/traces and /debug/pprof/ — are neither counted nor
// traced, so reading them cannot change what they expose. /healthz is
// counted but not traced, so probes cannot evict real traces from the
// bounded ring. Every other request, 401s included, is counted under
// the route it was registered as (else "other"), traced as
// "<METHOD> <path>" joined to an incoming traceparent with the trace ID
// echoed in X-Dpspatial-Trace-Id, and slow-logged.
func (e *Engine) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p := r.URL.Path
	if p == MetricsPath || p == TracesPath || strings.HasPrefix(p, PprofPathPrefix) {
		e.serveGated(w, r)
		return
	}
	traced := p != "/healthz"
	var span *trace.Span
	if traced && e.tracer != nil {
		var remote trace.SpanContext
		if tp := r.Header.Get(trace.TraceparentHeader); tp != "" {
			if sc, err := trace.ParseTraceparent(tp); err == nil {
				remote = sc
			}
		}
		span = e.tracer.Root(r.Method+" "+p, remote)
		span.SetAttr(trace.String("method", r.Method), trace.String("path", p))
		w.Header().Set(trace.TraceIDHeader, span.TraceID())
		r = r.WithContext(trace.ContextWithSpan(r.Context(), span))
	}
	rec := &statusRecorder{ResponseWriter: w}
	t0 := time.Now()
	e.serveGated(rec, r)
	elapsed := time.Since(t0)
	if rec.status == 0 {
		rec.status = http.StatusOK
	}

	route := "other"
	if e.routes[p] {
		route = p
	}
	code := strconv.Itoa(rec.status)
	e.met.Requests.With(route, code).Inc()
	e.met.Latency.With(route).Observe(elapsed.Seconds())
	if rec.status >= 400 {
		// Deriving the refusal counters from the status covers every
		// writeError path of every handler without instrumenting each.
		switch {
		case r.Method == http.MethodPost && (route == "/v1/report" || route == "/v1/aggregate"):
			e.met.Submissions.With(SubmissionRefused).Inc()
			e.met.SubmissionRefusals.With(code).Inc()
		case route == "/v1/query":
			e.met.QueryRefusals.With(code).Inc()
		}
	}
	if traced {
		span.SetStatus(rec.status)
		span.End()
		e.cfg.SlowLog.Log(e.cfg.Service, span.TraceID(), r.Method, p, rec.status, elapsed)
	}
}

// serveGated refuses every request but /healthz that lacks the bearer
// token (when one is configured) and routes the rest.
func (e *Engine) serveGated(w http.ResponseWriter, r *http.Request) {
	if e.cfg.AuthToken != "" && r.URL.Path != "/healthz" && !AuthorizeBearer(r, e.cfg.AuthToken) {
		writeError(w, http.StatusUnauthorized, errUnauthorized)
		return
	}
	e.mux.ServeHTTP(w, r)
}

// statusRecorder captures the status code a handler wrote: 0 until the
// handler writes, 200 when it writes a body without calling WriteHeader.
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

// Registry is the /metrics registry the tier layers its own series on.
func (e *Engine) Registry() *metrics.Registry { return e.reg }

// Instruments is the shared instrument set registered on Registry.
func (e *Engine) Instruments() *ServiceMetrics { return e.met }

// DecodeStats returns the decode accounting and the generation of the
// cached estimate (0 = none yet).
func (e *Engine) DecodeStats() (DecodeCounters, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.counters, e.estGen
}

// FillStats completes a tier's /v1/stats body with what the Engine
// holds: the scheme, the decode accounting and the cadence.
func (e *Engine) FillStats(s *Stats) {
	s.Scheme = e.scheme()
	s.DecodeCounters, s.EstimateGeneration = e.DecodeStats()
	s.CadenceMillis = e.cfg.Cadence.Milliseconds()
}

// Start launches the background cadence loop: each tick brings the
// estimate up to the current state. No-op when the cadence is zero.
func (e *Engine) Start() {
	if e.cfg.Cadence <= 0 {
		return
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		ticker := time.NewTicker(e.cfg.Cadence)
		defer ticker.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-ticker.C:
				// Bound each tick so a hung source cannot wedge the loop.
				// Refresh errors surface on the next GET; the loop only
				// keeps the estimate warm. No request, so no trace.
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				_, _ = e.read(ctx, false)
				cancel()
			}
		}
	}()
}

// Close stops the cadence loop. The handler stays usable.
func (e *Engine) Close() {
	e.stopOnce.Do(func() { close(e.stop) })
	e.wg.Wait()
}

// basis names the cache a read consults: the quadtree for range
// queries on a TreeEstimator, the estimate otherwise.
func basis(mech Estimator, rangeQuery bool) string {
	if _, ok := mech.(TreeEstimator); ok && rangeQuery {
		return CacheTree
	}
	return CacheEstimate
}

// read returns the decode a request needs at the current state,
// decoding at most once per state key. A traced request context hangs
// a cache-hit event or a decode span off its active span; the cadence
// loop's context records nothing.
func (e *Engine) read(ctx context.Context, rangeQuery bool) (*view, error) {
	mech, _ := e.Identity()
	if mech == nil {
		return nil, e.unadopted()
	}
	span := trace.SpanFrom(ctx)
	e.decodeMu.Lock()
	defer e.decodeMu.Unlock()
	kind := basis(mech, rangeQuery)
	prev := e.cache[kind]
	var cached uint64
	if prev != nil {
		cached = prev.key
	}
	st, err := e.cfg.Source(ctx, cached, prev != nil)
	if err != nil {
		return nil, err
	}
	if st.N == 0 {
		return nil, noReports
	}
	if prev != nil && prev.key == st.Key {
		e.met.QueryCacheHits.With(kind).Inc()
		span.Event(kind+".cache.hit", trace.Int("generation", int64(prev.gen)))
		return prev, nil
	}
	e.met.QueryCacheMisses.With(kind).Inc()
	name, decode := ".em.decode", e.decodeEstimate
	if kind == CacheTree {
		name, decode = ".tree.decode", decodeTree
	}
	decodeSpan := span.Child(e.cfg.Tier + name)
	v, err := decode(decodeSpan, mech, st, prev)
	if err != nil {
		decodeSpan.Fail(err)
		decodeSpan.End()
		return nil, err
	}
	decodeSpan.SetAttr(trace.Int("generation", int64(st.Gen)))
	decodeSpan.End()
	e.cache[kind] = v
	return v, nil
}

// decodeEstimate decodes the state's estimate: cold the first time,
// warm-started from the previous estimate afterwards when the mechanism
// supports it.
func (e *Engine) decodeEstimate(span *trace.Span, mech Estimator, st State, prev *view) (*view, error) {
	var init *grid.Hist2D
	if prev != nil {
		init = prev.est
	}
	t0 := time.Now()
	est, iters, warm, err := DecodeEstimate(mech, st.Agg, init)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(t0)
	mode := DecodeCold
	if warm {
		mode = DecodeWarm
	}
	span.SetAttr(trace.String("mode", mode), trace.Int("iterations", int64(iters)))
	e.mu.Lock()
	saved := e.counters.Account(iters, warm)
	e.estGen = st.Gen
	e.mu.Unlock()
	e.met.Decodes.With(mode).Inc()
	e.met.DecodeSeconds.With(mode).Observe(elapsed.Seconds())
	e.met.DecodeIterations.With(mode).Add(float64(iters))
	if saved > 0 {
		e.met.DecodeIterationsSaved.Add(float64(saved))
	}
	return &view{key: st.Key, gen: st.Gen, n: st.N, scheme: mech.Scheme(), est: est, iters: iters, warm: warm}, nil
}

// decodeTree decodes the state's consistent quadtree.
func decodeTree(_ *trace.Span, mech Estimator, st State, _ *view) (*view, error) {
	tree, _, err := mech.(TreeEstimator).EstimateTreeFromAggregate(st.Agg)
	if err != nil {
		return nil, err
	}
	return &view{key: st.Key, gen: st.Gen, n: st.N, scheme: mech.Scheme(), tree: tree}, nil
}

// DecodeEstimate runs one estimate decode: warm-started from init when
// the mechanism supports it and init is non-nil, cold otherwise.
func DecodeEstimate(mech Estimator, agg *fo.Aggregate, init *grid.Hist2D) (est *grid.Hist2D, iters int, warm bool, err error) {
	if ws, ok := mech.(WarmEstimator); ok {
		e, stats, err := ws.EstimateFromAggregateWarm(agg, init)
		if err != nil {
			return nil, 0, false, err
		}
		return e, stats.Iterations, init != nil, nil
	}
	e, err := mech.EstimateFromAggregate(agg)
	if err != nil {
		return nil, 0, false, err
	}
	return e, 0, false, nil
}

// MethodOnly routes requests with the given method to h and answers
// every other method with the JSON 405 envelope.
func MethodOnly(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("%s only", method))
			return
		}
		h(w, r)
	}
}

// errorStatus maps a read error to its HTTP status: a Refusal answers
// its own, any other error the tier's mapping.
func (e *Engine) errorStatus(err error) int {
	var rf *Refusal
	switch {
	case errors.As(err, &rf):
		return rf.Status
	case e.cfg.ErrorStatus == nil:
		return http.StatusConflict
	}
	return e.cfg.ErrorStatus(err)
}

// handleEstimate serves the estimate of the current state, decoding
// first if the state moved since the last decode — so the response
// always reflects every merged submission.
func (e *Engine) handleEstimate(w http.ResponseWriter, r *http.Request) {
	v, err := e.read(r.Context(), false)
	if err != nil {
		writeError(w, e.errorStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, &EstimateResponse{
		Scheme:     v.scheme,
		Generation: v.gen,
		Reports:    v.n,
		D:          v.est.Dom.D,
		Domain:     DomainSpec{MinX: v.est.Dom.MinX, MinY: v.est.Dom.MinY, Side: v.est.Dom.Side},
		Mass:       v.est.Mass,
		Iterations: v.iters,
		Warm:       v.warm,
	})
}

// handleQuery serves GET /v1/query from the current state, decoding
// the needed basis first if the state moved.
func (e *Engine) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, err := ParseQueryRequest(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	v, err := e.read(r.Context(), req.Type == QueryTypeRange)
	var resp *QueryResponse
	if err == nil {
		resp, err = AnswerQuery(req, v.scheme, v.gen, v.n, v.tree, v.est)
	}
	if err != nil {
		status := e.errorStatus(err)
		if errors.As(err, new(*BadQueryError)) {
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}
	e.met.Queries.With(req.Type).Inc()
	writeJSON(w, http.StatusOK, resp)
}
