package collector

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
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
// handlers, the cadence loop, and the mux, tracer and middleware
// wiring around the tier's own submission, stats and health handlers.

// State is one read of a tier's merged state.
type State struct {
	// Mech is the tier's installed mechanism.
	Mech Estimator
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
// the decode the engine holds for this read, valid only when ok. A
// source refuses with an error while the tier has no mechanism or no
// reports.
type StateSource func(ctx context.Context, cached uint64, ok bool) (State, error)

// EngineConfig wires an Engine.
type EngineConfig struct {
	// Tier prefixes the decode span names ("collector" → collector.em.decode);
	// Service names the tracer's tier.
	Tier, Service string
	// Source reads the tier's merged state.
	Source StateSource
	// ErrorStatus maps a read error to its HTTP status (nil: 409).
	ErrorStatus func(error) int
	// Routes are the tier's own handlers, by path.
	Routes map[string]http.HandlerFunc
	// Cadence is the background refresh period (0 = no loop); OnTick,
	// if set, runs before each cadence refresh.
	Cadence time.Duration
	OnTick  func(ctx context.Context)
	// The serving options of the tier's Config.
	AuthToken      string
	DisableMetrics bool
	DisableTraces  bool
	TraceCapacity  int
	SlowLog        *trace.SlowLogger
	EnablePprof    bool
}

// Engine is the shared read path of a serving tier. It implements
// http.Handler over the tier's full route set.
type Engine struct {
	cfg     EngineConfig
	handler http.Handler
	reg     *metrics.Registry
	met     *ServiceMetrics
	tracer  *trace.Tracer // nil when tracing is disabled

	// decodeMu serialises state reads and decodes, so concurrent reads
	// never duplicate a decode; the tier's submissions proceed
	// meanwhile. It guards mech and cache.
	decodeMu sync.Mutex
	// mech is the mechanism of the last state read. A tier never
	// replaces its mechanism once installed, and the caches stay empty
	// until a read has seen it, so it picks the cache a read consults.
	mech Estimator
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

// NewEngine builds the engine and its handler chain.
func NewEngine(cfg EngineConfig) *Engine {
	e := &Engine{cfg: cfg, reg: metrics.New(), cache: map[string]*view{}, stop: make(chan struct{})}
	e.met = NewServiceMetrics(e.reg)
	if !cfg.DisableTraces {
		e.tracer = trace.NewTracer(cfg.Service, cfg.TraceCapacity)
	}
	mux := http.NewServeMux()
	for path, h := range cfg.Routes {
		mux.HandleFunc(path, h)
	}
	mux.HandleFunc("/v1/estimate", MethodOnly(http.MethodGet, e.handleEstimate))
	mux.HandleFunc("/v1/query", MethodOnly(http.MethodGet, e.handleQuery))
	if !cfg.DisableMetrics {
		mux.Handle(MetricsPath, e.reg.Handler())
	}
	if e.tracer != nil {
		mux.Handle(TracesPath, e.tracer.Handler())
	}
	if cfg.EnablePprof {
		// Inside the bearer gate — profiles leak code layout and timing —
		// and outside request accounting and tracing, so a profile run
		// perturbs neither the /metrics series nor the trace ring.
		mux.HandleFunc(PprofPathPrefix, pprof.Index)
		mux.HandleFunc(PprofPathPrefix+"cmdline", pprof.Cmdline)
		mux.HandleFunc(PprofPathPrefix+"profile", pprof.Profile)
		mux.HandleFunc(PprofPathPrefix+"symbol", pprof.Symbol)
		mux.HandleFunc(PprofPathPrefix+"trace", pprof.Trace)
	}
	e.handler = trace.Middleware(e.tracer, cfg.SlowLog, UntracedPath,
		InstrumentHTTP(e.met, RequireBearer(cfg.AuthToken, mux)))
	return e
}

// ServeHTTP implements http.Handler.
func (e *Engine) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	e.handler.ServeHTTP(w, r)
}

// Tracer is the completed-trace ring, nil when tracing is disabled.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

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

// Start launches the background cadence loop: each tick runs OnTick,
// then brings the estimate up to the current state. No-op when the
// cadence is zero.
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
				if e.cfg.OnTick != nil {
					e.cfg.OnTick(ctx)
				}
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
	span := trace.SpanFrom(ctx)
	e.decodeMu.Lock()
	defer e.decodeMu.Unlock()
	prev := e.cache[basis(e.mech, rangeQuery)]
	var cached uint64
	if prev != nil {
		cached = prev.key
	}
	st, err := e.cfg.Source(ctx, cached, prev != nil)
	if err != nil {
		return nil, err
	}
	e.mech = st.Mech
	kind := basis(st.Mech, rangeQuery)
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
	v, err := decode(decodeSpan, st, prev)
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
func (e *Engine) decodeEstimate(span *trace.Span, st State, prev *view) (*view, error) {
	var init *grid.Hist2D
	if prev != nil {
		init = prev.est
	}
	t0 := time.Now()
	est, iters, warm, err := DecodeEstimate(st.Mech, st.Agg, init)
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
	return &view{key: st.Key, gen: st.Gen, n: st.N, scheme: st.Mech.Scheme(), est: est, iters: iters, warm: warm}, nil
}

// decodeTree decodes the state's consistent quadtree.
func decodeTree(_ *trace.Span, st State, _ *view) (*view, error) {
	tree, _, err := st.Mech.(TreeEstimator).EstimateTreeFromAggregate(st.Agg)
	if err != nil {
		return nil, err
	}
	return &view{key: st.Key, gen: st.Gen, n: st.N, scheme: st.Mech.Scheme(), tree: tree}, nil
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

// errorStatus maps a read error to its HTTP status.
func (e *Engine) errorStatus(err error) int {
	if e.cfg.ErrorStatus == nil {
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
