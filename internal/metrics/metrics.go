// Package metrics is a small, dependency-free metrics registry with
// Prometheus text exposition — the operator surface behind the collector
// and fleet tiers' GET /metrics endpoints, built in the same spirit as
// internal/fft: everything the service needs, nothing imported for it.
//
// Three instrument kinds cover the operational counters the tiers
// compute: monotone Counters, settable Gauges, and fixed-bucket
// Histograms (cumulative, with _sum and _count, like Prometheus client
// histograms). Each comes in a plain single-series form, a labelled Vec
// form, and — for counters and gauges — a func-backed form whose value
// is read at scrape time, which is how durable-store counters are
// surfaced without the store depending on this package.
//
// Exposition is deterministic: families are emitted in lexicographic
// name order, series within a family in lexicographic label order, and
// all values are rendered with fmt. Two scrapes of a quiesced registry
// are therefore byte-identical — pinned by a golden test, and the
// property CI's smoke greps rely on.
//
// Update paths are lock-free (atomic compare-and-swap on float bits), so
// instruments can be bumped while holding service locks without any
// ordering relationship to the scrape path: WriteTo takes the registry
// lock and may call scrape funcs that take service locks, while service
// code holding those locks only ever touches leaf atomics.
//
// OpenMetrics exemplars (attaching a trace ID to individual histogram
// observations) are deliberately NOT implemented: exemplars record the
// last-seen trace per bucket, which would make two scrapes of a
// quiesced registry differ byte-for-byte and break the determinism
// contract above. The metrics↔traces join runs the other way instead —
// GET /v1/traces filters by duration/outcome, and the slow-request log
// carries the trace ID alongside the latency that the histograms only
// see in aggregate.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the exposition TYPE of a metric family.
type Kind string

// The exposition TYPE strings.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// value is a float64 updated with atomic CAS on its bit pattern — the
// leaf cell under every instrument.
type value struct{ bits atomic.Uint64 }

func (v *value) add(delta float64) {
	for {
		old := v.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if v.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (v *value) set(x float64) { v.bits.Store(math.Float64bits(x)) }
func (v *value) load() float64 { return math.Float64frombits(v.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct{ v value }

// Inc adds 1.
func (c *Counter) Inc() { c.v.add(1) }

// Add adds delta, which must be non-negative for the exposition to stay
// a valid counter; the registry does not enforce it.
func (c *Counter) Add(delta float64) { c.v.add(delta) }

// Value returns the current count — the test-assertion surface.
func (c *Counter) Value() float64 { return c.v.load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v value }

// Set replaces the value.
func (g *Gauge) Set(x float64) { g.v.set(x) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.load() }

// Histogram is a fixed-bucket cumulative histogram: Observe counts each
// observation into every bucket whose upper bound is >= the value, plus
// the implicit +Inf bucket, and accumulates _sum and _count.
type Histogram struct {
	bounds []float64 // sorted upper bounds, +Inf excluded
	counts []atomic.Uint64
	inf    atomic.Uint64
	sum    value
}

// Observe records one value.
func (h *Histogram) Observe(x float64) {
	for i, b := range h.bounds {
		if x <= b {
			h.counts[i].Add(1)
		}
	}
	h.inf.Add(1)
	h.sum.add(x)
}

// series is one label-set instance inside a family.
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
	fn          func() float64 // scrape-time value (counter/gauge funcs)
}

// family is one named metric with its help text, kind and series set.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. The zero value is not usable; call New.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register creates (or fetches, when name is already registered with the
// identical shape) a family. Re-registering with a different kind or
// label set is a programming error and panics — metric names are a
// stable contract, not runtime input.
func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || strings.Join(f.labels, ",") != strings.Join(labels, ",") {
			panic(fmt.Sprintf("metrics: %s re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// get returns the family's series for the label values, creating it on
// first use.
func (f *family) get(labelValues []string) *series {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d", f.name, len(f.labels), len(labelValues)))
	}
	key := strings.Join(labelValues, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelValues: append([]string(nil), labelValues...)}
	switch f.kind {
	case KindCounter:
		s.counter = &Counter{}
	case KindGauge:
		s.gauge = &Gauge{}
	case KindHistogram:
		s.hist = &Histogram{bounds: f.buckets, counts: make([]atomic.Uint64, len(f.buckets))}
	}
	f.series[key] = s
	return s
}

// Counter registers (or fetches) a single-series counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, KindCounter, nil, nil).get(nil).counter
}

// Gauge registers (or fetches) a single-series gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, KindGauge, nil, nil).get(nil).gauge
}

// CounterFunc registers a counter whose value is fn() at scrape time —
// for monotone values another subsystem already counts (the durable
// store's WAL counters). fn runs under the registry lock; it may take
// its own locks but must never scrape this registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, KindCounter, nil, nil)
	f.get(nil).fn = fn
}

// GaugeFunc registers a gauge whose value is fn() at scrape time, under
// the same rules as CounterFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, KindGauge, nil, nil)
	f.get(nil).fn = fn
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, KindCounter, labels, nil)}
}

// With returns the counter for the label values, creating it on first
// use. Values are cached; With on a hot path costs one map lookup.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.get(labelValues).counter
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, KindGauge, labels, nil)}
}

// With returns the gauge for the label values, creating it on first use.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.get(labelValues).gauge
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a labelled histogram family over
// the given bucket upper bounds.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, KindHistogram, labels, buckets)}
}

// With returns the histogram for the label values, creating it on first
// use.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.get(labelValues).hist
}

// DefBuckets are the default latency buckets (seconds) of the HTTP and
// decode timing histograms — Prometheus client_golang's defaults, so
// dashboards written against the usual boundaries transfer.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// escapeLabel renders a label value inside double quotes: backslash,
// quote and newline are escaped per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp renders a HELP line payload: backslash and newline only.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a sample value. fmt's %g is the shortest
// round-tripping form, so re-scraping and re-rendering is stable.
func formatValue(x float64) string {
	if math.IsInf(x, +1) {
		return "+Inf"
	}
	if math.IsInf(x, -1) {
		return "-Inf"
	}
	return fmt.Sprintf("%g", x)
}

// labelString renders a {k="v",...} block from parallel key/value
// slices, empty when there are no labels.
func labelString(keys, values []string, extraKey, extraValue string) string {
	if len(keys) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, k, escapeLabel(values[i]))
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraKey, escapeLabel(extraValue))
	}
	b.WriteByte('}')
	return b.String()
}

// WriteTo renders the registry in the Prometheus text exposition format
// (version 0.0.4): families sorted by name, series sorted by label
// values, histograms as cumulative _bucket/_sum/_count. The output for
// an unchanged registry is byte-identical between calls.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make(map[string]*family, len(r.families))
	for name, f := range r.families {
		names = append(names, name)
		fams[name] = f
	}
	r.mu.Unlock()
	sort.Strings(names)

	var total int64
	for _, name := range names {
		f := fams[name]
		n, err := f.write(w)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// write renders one family.
func (f *family) write(w io.Writer) (int64, error) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ordered := make([]*series, len(keys))
	for i, k := range keys {
		ordered[i] = f.series[k]
	}
	f.mu.Unlock()

	var b strings.Builder
	fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
	for _, s := range ordered {
		switch f.kind {
		case KindCounter, KindGauge:
			x := 0.0
			switch {
			case s.fn != nil:
				x = s.fn()
			case s.counter != nil:
				x = s.counter.Value()
			case s.gauge != nil:
				x = s.gauge.Value()
			}
			fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labels, s.labelValues, "", ""), formatValue(x))
		case KindHistogram:
			h := s.hist
			for i, bound := range h.bounds {
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, s.labelValues, "le", formatValue(bound)), h.counts[i].Load())
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
				labelString(f.labels, s.labelValues, "le", "+Inf"), h.inf.Load())
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.name,
				labelString(f.labels, s.labelValues, "", ""), formatValue(h.sum.load()))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.name,
				labelString(f.labels, s.labelValues, "", ""), h.inf.Load())
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Handler serves the exposition over HTTP — GET only, text/plain with
// the exposition-format version parameter.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}
