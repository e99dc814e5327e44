package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"dpspatial"
	"dpspatial/internal/collector"
	"dpspatial/internal/durable"
	"dpspatial/internal/fo"
	"dpspatial/internal/trace"
)

// namedMetric is one printed and reported number.
type namedMetric struct {
	name  string
	value float64
	unit  string
	note  string // sample count and the like, printed only
	n     int    // samples behind a per-layer metric
}

// endToEnd is the untraced pass's JSON metrics: every one exists on
// every workload and is never zero.
func (p *pass) endToEnd() []namedMetric {
	calm, rates, all := calmWindows(p.done, p.w.window(), p.steal)
	sub := latencies(calm, opSubmit)
	done := float64(p.attempted - p.failed)
	calmNote := fmt.Sprintf("the %d of %d %d-op windows with the least steal", len(rates), len(all), p.w.window())
	return []namedMetric{
		{name: "setup_s", value: median(p.setupS), unit: "s", note: fmt.Sprintf("median of %d setups", len(p.setupS))},
		{name: "submit_p50_ms", value: quantile(sub, 0.50), unit: "ms", note: pctNote(len(sub), 0.50) + " in " + calmNote},
		{name: "ops_per_s", value: median(rates), unit: "1/s",
			note: fmt.Sprintf("median over %s; %g ops in %.2fs", calmNote, done, p.elapsed.Seconds())},
		{name: "server_cpu_ms_per_op", value: float64(p.cpu) / float64(time.Millisecond) / done, unit: "ms", note: "daemons' utime+stime over the loop"},
		{name: "server_peak_rss_mb", value: float64(p.rssKB) / 1024, unit: "MB", note: "sum of the daemons' VmHWM"},
	}
}

// calmRate is ops_per_s: the median calls per second over the windows
// with the least steal.
func (p *pass) calmRate() float64 {
	_, rates, _ := calmWindows(p.done, p.w.window(), p.steal)
	return median(rates)
}

func pctNote(n int, q float64) string {
	return fmt.Sprintf("n=%d, %d beyond", n, n-int(math.Ceil(q*float64(n))))
}

// print writes the pass's end-to-end table: the JSON metrics plus the
// tail and read-side latencies, the failure ratio and the host's CPU
// steal, each with its samples.
func (p *pass) print(w io.Writer) {
	mode := "untraced"
	if p.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s, %s, seed %d: %d ops (%d submits) in %.2fs\n", p.w.name, mode, p.seed, p.attempted, p.submits, p.elapsed.Seconds())
	sub := p.samples[opSubmit]
	_, _, all := calmWindows(p.done, p.w.window(), p.steal)
	rows := append(p.endToEnd(),
		namedMetric{name: "submit_p50_ms_all", value: quantile(sub, 0.50), unit: "ms", note: pctNote(len(sub), 0.50) + ", every window"},
		namedMetric{name: "ops_per_s_all", value: median(all), unit: "1/s", note: fmt.Sprintf("median over all %d windows", len(all))},
		namedMetric{name: "submit_p99_ms", value: quantile(sub, 0.99), unit: "ms", note: pctNote(len(sub), 0.99) + ", every window"})
	if p.w.reads() {
		fr, rd := p.samples[opFresh], p.samples[opRead]
		rows = append(rows,
			namedMetric{name: "fresh_p50_ms", value: quantile(fr, 0.50), unit: "ms", note: pctNote(len(fr), 0.50)},
			namedMetric{name: "fresh_p90_ms", value: quantile(fr, 0.90), unit: "ms", note: pctNote(len(fr), 0.90)},
			namedMetric{name: "read_p50_ms", value: quantile(rd, 0.50), unit: "ms", note: pctNote(len(rd), 0.50)},
			namedMetric{name: "read_p99_ms", value: quantile(rd, 0.99), unit: "ms", note: pctNote(len(rd), 0.99)},
		)
	}
	rows = append(rows,
		namedMetric{name: "fail_ratio", value: float64(p.failed) / float64(max(p.attempted, 1)), unit: "ratio",
			note: fmt.Sprintf("%d of %d", p.failed, p.attempted)},
		namedMetric{name: "host_steal_pct", value: 100 * p.steal.total(), unit: "%", note: "CPU time the hypervisor took from this VM during the loop"})
	for _, m := range rows {
		fmt.Fprintf(w, "  %-24s %12.4f %-5s  (%s)\n", m.name, m.value, m.unit, m.note)
	}
	for _, f := range p.failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	for _, counts := range []map[string]float64{p.exact, p.seeded} {
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  exact %-28s %g\n", k, counts[k])
		}
	}
}

// spanIndex is a pass's daemon spans, restricted to the traces of the
// loop's client calls.
type spanIndex struct {
	dur  map[string][]float64 // span duration by name
	self map[string][]float64 // span self time (duration minus its children) by name
}

// spans indexes the pass's daemon traces. A root span is keyed by
// "<service> <METHOD> <path>", every other span by its name; "cached"
// marks a read root whose trace holds no decode span. Two derived
// series join the durations: "collector.wal.fsync" (the fsyncMs
// attribute of collector.wal.append) and "http.overhead" (each call's
// client latency minus the front daemon's root span).
func (p *pass) spans() *spanIndex {
	ix := &spanIndex{dur: map[string][]float64{}, self: map[string][]float64{}}
	front := "collector-0"
	if p.w.fleet {
		front = "supervisor"
	}
	for name, tds := range p.daemonTraces {
		for _, td := range tds {
			if _, ok := p.clientMs[td.TraceID]; !ok {
				continue
			}
			childMs := map[string]float64{}
			decoded := false
			for _, s := range td.Spans[1:] {
				childMs[s.ParentSpanID] += s.DurationMs
				decoded = decoded || strings.HasSuffix(s.Name, ".em.decode")
			}
			for i, s := range td.Spans {
				key := s.Name
				if i == 0 {
					key = td.Service + " " + s.Name
					if strings.HasPrefix(s.Name, "GET ") && !decoded {
						key += " cached"
					}
					if name == front {
						ix.dur["http.overhead"] = append(ix.dur["http.overhead"], p.clientMs[td.TraceID]-s.DurationMs)
					}
				}
				ix.dur[key] = append(ix.dur[key], s.DurationMs)
				ix.self[key] = append(ix.self[key], max(s.DurationMs-childMs[s.SpanID], 0))
				if v, ok := s.Attrs["fsyncMs"].(float64); ok && s.Name == "collector.wal.append" {
					ix.dur["collector.wal.fsync"] = append(ix.dur["collector.wal.fsync"], v)
				}
			}
		}
	}
	return ix
}

// print writes one row per span name: count, p50 and p99 of the self
// time (duration minus children), and p50 of the duration.
func (ix *spanIndex) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "# spans of the %s traced pass: count, self p50 / p99 ms, duration p50 ms\n", workload)
	names := make([]string, 0, len(ix.self))
	for n := range ix.self {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		s := ix.self[n]
		fmt.Fprintf(w, "  %-44s %7d %10.4f %10.4f %10.4f\n", n, len(s), quantile(s, 0.5), quantile(s, 0.99), quantile(ix.dur[n], 0.5))
	}
}

// pick returns quantile q of the named series, or false when empty.
func pick(m map[string][]float64, q float64, names ...string) (float64, int, bool) {
	var xs []float64
	for _, n := range names {
		xs = append(xs, m[n]...)
	}
	if len(xs) == 0 {
		return 0, 0, false
	}
	return quantile(xs, q), len(xs), true
}

// layerDef is one per-layer metric: how to read it off a traced pass,
// and the workload that measures it when the run's own workload does
// not run that layer.
type layerDef struct {
	name, unit, home string
	get              func(p *pass, ix *spanIndex) (float64, int, bool)
}

func fromSpans(q float64, series func(ix *spanIndex) map[string][]float64, names ...string) func(*pass, *spanIndex) (float64, int, bool) {
	return func(p *pass, ix *spanIndex) (float64, int, bool) { return pick(series(ix), q, names...) }
}

func durs(ix *spanIndex) map[string][]float64  { return ix.dur }
func selfs(ix *spanIndex) map[string][]float64 { return ix.self }

func inproc(name string, q float64) func(*pass, *spanIndex) (float64, int, bool) {
	return func(p *pass, _ *spanIndex) (float64, int, bool) { return pick(p.inproc, q, name) }
}

func exactCount(name string) func(*pass, *spanIndex) (float64, int, bool) {
	return func(p *pass, _ *spanIndex) (float64, int, bool) {
		v, ok := p.exact[name]
		return v, 1, ok
	}
}

var layerDefs = []layerDef{
	{"collector.body.read.p50_ms", "ms", "ingest", fromSpans(0.5, durs, "collector.body.read")},
	{"collector.wal.append.p50_ms", "ms", "ingest", fromSpans(0.5, durs, "collector.wal.append")},
	{"collector.wal.fsync.p50_ms", "ms", "ingest", fromSpans(0.5, durs, "collector.wal.fsync")},
	{"collector.merge.p50_ms", "ms", "ingest", fromSpans(0.5, durs, "collector.merge")},
	{"collector.submit.self.p99_ms", "ms", "ingest", fromSpans(0.99, selfs, "collector POST /v1/report", "collector POST /v1/aggregate")},
	{"collector.em.decode.p50_ms", "ms", "refresh", fromSpans(0.5, durs, "collector.em.decode")},
	{"collector.read.self.p50_ms", "ms", "refresh", fromSpans(0.5, selfs, "collector GET /v1/estimate cached", "collector GET /v1/query cached")},
	{"collector.cache.hit_ratio", "ratio", "refresh", func(p *pass, _ *spanIndex) (float64, int, bool) {
		n := p.cacheHits + p.cacheMisses
		return p.cacheHits / n, int(n), n > 0
	}},
	{"fleet.route.attempt.p50_ms", "ms", "fleet", fromSpans(0.5, durs, "fleet.route.attempt")},
	{"fleet.route.attempts_per_submit", "count", "fleet", exactCount("route_attempts_per_submit")},
	{"fleet.pull.p50_ms", "ms", "fleet", fromSpans(0.5, durs, "fleet.pull")},
	{"fleet.pull.bytes_per_read", "bytes", "fleet", exactCount("pull_bytes_per_read")},
	{"fleet.read.self.p99_ms", "ms", "fleet", fromSpans(0.99, selfs, "supervisor GET /v1/estimate cached", "supervisor GET /v1/query cached")},
	{"fleet.em.decode.p50_ms", "ms", "fleet", fromSpans(0.5, durs, "fleet.em.decode")},
	{"http.overhead.p50_ms", "ms", "", fromSpans(0.5, durs, "http.overhead")},
	{"durable.snapshots", "count", "", exactCount("snapshots")},
	{"durable.snapshot_ms", "ms", "", inproc("durable.snapshot_ms", 0.5)},
	{"durable.recovery_ms", "ms", "", inproc("durable.recovery_ms", 0.5)},
	{"durable.append_ms", "ms", "", inproc("durable.append_ms", 0.5)},
	{"durable.fsyncs_per_submit", "count", "", func(p *pass, _ *spanIndex) (float64, int, bool) {
		return p.exact["wal_fsyncs"] / float64(p.submits), p.submits, true
	}},
	{"durable.wal_bytes_per_report", "bytes", "", exactCount("wal_bytes_per_report")},
	{"fo.report.decode_us", "us", "ingest", inproc("fo.report.decode_us", 0.5)},
	{"fo.report.allocs", "count", "ingest", inproc("fo.report.allocs", 0.5)},
	{"fo.merge_us", "us", "", inproc("fo.merge_us", 0.5)},
	{"fo.blob.unmarshal_us", "us", "", inproc("fo.blob.unmarshal_us", 0.5)},
	{"em.iters_per_decode", "count", "refresh", func(p *pass, _ *spanIndex) (float64, int, bool) {
		// Decodes that report no iterations ran no EM; a run without an
		// iterating decode takes the metric from its home workload.
		total := p.seeded["em_iters"]
		return total / float64(len(p.iters)), len(p.iters), total > 0
	}},
	{"em.decode_ms", "ms", "refresh", inproc("em.decode_ms", 0.5)},
	{"em.allocs_per_decode", "count", "refresh", inproc("em.allocs_per_decode", 0.5)},
	{"trace.overhead_pct", "%", "", nil},
}

// perLayer reads every per-layer metric off the traced passes: from the
// run's own workload where its layer runs there, otherwise from the
// traced pass of the metric's home workload. trace.overhead_pct is the
// own workload's untraced ops_per_s over its traced one, minus one.
// It prints each pass's span table on the way, and fails when a metric
// has no sample on either workload — a renamed span or attribute, say —
// rather than report it as zero.
func perLayer(w io.Writer, own string, passes map[string]*pass, base *pass) ([]namedMetric, error) {
	ix := map[string]*spanIndex{}
	for _, name := range workloadOrder {
		ix[name] = passes[name].spans()
		ix[name].print(w, name)
	}
	var out []namedMetric
	var missing []string
	for _, d := range layerDefs {
		if d.get == nil {
			traced, untraced := passes[own].calmRate(), base.calmRate()
			pct := (untraced/traced - 1) * 100
			out = append(out, namedMetric{d.name, pct, d.unit, fmt.Sprintf("%s: %.1f ops/s traced vs %.1f untraced", own, traced, untraced),
				len(passes[own].done) / base.w.window()})
			continue
		}
		src := own
		v, n, ok := d.get(passes[own], ix[own])
		if !ok && d.home != "" {
			src = d.home
			v, n, ok = d.get(passes[src], ix[src])
		}
		if !ok || n == 0 {
			missing = append(missing, d.name)
			continue
		}
		out = append(out, namedMetric{d.name, v, d.unit, fmt.Sprintf("n=%d, on %s", n, src), n})
	}
	if len(missing) > 0 {
		return out, fmt.Errorf("per-layer metrics without a sample: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

func printLayers(w io.Writer, ms []namedMetric) {
	fmt.Fprintln(w, "# per-layer metrics (traced passes)")
	for _, m := range ms {
		fmt.Fprintf(w, "  %-32s %14.4f %-6s (%s)\n", m.name, m.value, m.unit, m.note)
	}
}

// directCalls times loadbench's own calls into the layers on this
// pass's inputs — fo report decode, blob decode and merge; durable open
// (with the collector's replay), append and snapshot on a seeded copy;
// collector.DecodeEstimate — each inside a span of its own, so they
// land in the same trace dump as the daemons' spans.
func (e *env) directCalls(p *pass, f *fixture, m *mechanism, in *runInputs, final *fo.Aggregate) error {
	p.inproc = map[string][]float64{}
	tr := trace.NewTracer("loadbench.direct", 4096)
	defer func() { p.clientTraces = append(p.clientTraces, tr.Snapshot(0, "", 0)...) }()
	timed := func(metric, span string, scale float64, fn func() error) error {
		s := tr.Root(span, trace.SpanContext{})
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		s.Fail(err)
		s.End()
		p.inproc[metric] = append(p.inproc[metric], d.Seconds()*scale)
		return err
	}
	const us, ms = 1e6, 1e3
	sample := min(len(in.bodies), 32)

	blobs := in.bodies
	if p.w.name == "ingest" {
		blobs = nil
		for i := 0; i < sample; i++ {
			body := in.bodies[i]
			var agg *fo.Aggregate
			err := timed("fo.report.decode_us", "fo.report.decode", us/streamReports, func() error {
				var err error
				agg, err = decodeStream(m, body)
				return err
			})
			if err != nil {
				return err
			}
			blob, err := agg.MarshalBinary()
			if err != nil {
				return err
			}
			blobs = append(blobs, blob)
		}
		allocs := allocsPer(func() { _, _ = decodeStream(m, in.bodies[0]) })
		p.inproc["fo.report.allocs"] = []float64{allocs / streamReports}
	}
	acc := final.Clone()
	for i := 0; i < min(len(blobs), sample); i++ {
		shard := &fo.Aggregate{}
		if err := timed("fo.blob.unmarshal_us", "fo.UnmarshalBinary", us, func() error { return shard.UnmarshalBinary(blobs[i]) }); err != nil {
			return err
		}
		if err := timed("fo.merge_us", "fo.Merge", us, func() error { return acc.Merge(shard) }); err != nil {
			return err
		}
	}

	// durable: recovery (Open plus the collector's replay), then append
	// and snapshot on the recovered store.
	for rep := 0; rep < 3; rep++ {
		copies, err := e.copyFixture(f)
		if err != nil {
			return err
		}
		var st *durable.Store
		err = timed("durable.recovery_ms", "durable.Open+collector.New", ms, func() error {
			var err error
			if st, err = durable.Open(copies[0]); err != nil {
				return err
			}
			_, err = collector.New(collector.Config{Store: st, DisableTraces: true, Build: func(pl *collector.Pipeline) (collector.Estimator, error) {
				return dpspatial.NewMechanismFromPipeline(pl)
			}})
			return err
		})
		if st != nil {
			st.Close()
		}
		if err == nil {
			err = e.storeCalls(timed, copies[0], blobs[rep%len(blobs)])
		}
		e.removeRunDir(filepath.Dir(copies[0]))
		if err != nil {
			return err
		}
	}

	if p.w.reads() {
		if err := timed("em.decode_ms", "collector.DecodeEstimate", ms, func() error {
			_, _, _, err := collector.DecodeEstimate(m.rm, final, nil)
			return err
		}); err != nil {
			return err
		}
		p.inproc["em.allocs_per_decode"] = []float64{allocsPer(func() { _, _, _, _ = collector.DecodeEstimate(m.rm, final, nil) })}
	}
	return nil
}

// storeCalls times WAL appends and one full snapshot on a store
// reopened over the recovered copy.
func (e *env) storeCalls(timed func(string, string, float64, func() error) error, dir string, blob []byte) error {
	st, err := durable.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	rec := st.TakeRecovery()
	if rec == nil || rec.Snapshot == nil {
		return fmt.Errorf("fixture copy %s has no snapshot", dir)
	}
	meta := []byte(`{"kind":"aggregate","ack":{}}`)
	for i := 0; i < 8; i++ {
		r := durable.Record{Type: durable.RecordSubmission, ID: submissionID("direct", 0, i), Meta: meta, Blob: blob}
		if err := timed("durable.append_ms", "durable.Append", 1e3, func() error { _, err := st.Append(r); return err }); err != nil {
			return err
		}
	}
	s := rec.Snapshot
	return timed("durable.snapshot_ms", "durable.WriteSnapshot", 1e3, func() error { return st.WriteSnapshot(s.Meta, s.State, s.Acks) })
}

// decodeStream is the collector's report-stream decode: NDJSON report
// lines, each added to a shard aggregate.
func decodeStream(m *mechanism, body []byte) (*fo.Aggregate, error) {
	agg := m.rm.NewAggregate()
	dec := json.NewDecoder(bufio.NewReader(bytes.NewReader(body)))
	for {
		var rep fo.Report
		if err := dec.Decode(&rep); err == io.EOF {
			return agg, nil
		} else if err != nil {
			return nil, err
		}
		if err := agg.Add(rep); err != nil {
			return nil, err
		}
	}
}

// allocsPer counts the heap allocations of one call of fn.
func allocsPer(fn func()) float64 {
	fn() // warm up lazily built state
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}
