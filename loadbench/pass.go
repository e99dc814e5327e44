package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dpspatial/internal/collector"
	"dpspatial/internal/trace"
)

// pass is one measured execution of a workload against a fresh
// deployment: setups, the closed loop, and everything read back.
type pass struct {
	w       *workloadDef
	traced  bool
	seed    uint64
	ops     int
	submits int

	setupS    []float64
	samples   [numKinds][]float64 // call latencies in completion order
	failed    int
	attempted int
	failures  []string
	elapsed   time.Duration
	done      []sample           // the successful calls in completion order
	cpu       time.Duration      // the daemons' CPU time during the loop
	steal     stealLog           // the VM's steal counter through the loop
	rssKB     uint64             // sum of the daemons' VmHWM
	iters     []int              // EM iterations of each fresh read
	exact     map[string]float64 // counts that repeat across seeds
	seeded    map[string]float64 // counts that repeat for one seed

	// Traced passes only.
	clientTraces []trace.TraceData
	daemonTraces map[string][]trace.TraceData // by daemon name
	clientMs     map[string]float64           // client call latency by trace ID
	inproc       map[string][]float64         // direct-call timings and counts, by layer metric
	cacheHits    float64                      // collector estimate-cache hits / misses in the loop
	cacheMisses  float64
	pullBytes    float64 // bytes one fleet pull transfers
}

// daemonStats is the subset of a daemon's GET /v1/stats the benchmark
// reads: collectors fill the durability block, supervisors the routing
// counters.
type daemonStats struct {
	collector.Stats
	Routed    uint64 `json:"routed"`
	Failovers uint64 `json:"failovers"`
}

func (e *env) runPass(ctx context.Context, name string, seed uint64, seconds int, traced bool, share float64) (*pass, error) {
	w := workloads[name]
	f, err := e.ensureFixture(ctx, w)
	if err != nil {
		return nil, err
	}
	m, err := loadMechanism(w.mech)
	if err != nil {
		return nil, err
	}
	p := &pass{w: w, traced: traced, seed: seed, ops: w.ops(e.tiny, seconds, share), exact: map[string]float64{}, seeded: map[string]float64{}}
	p.submits = w.submits(p.ops)
	in, err := genInputs(w, m, seed, p.ops)
	if err != nil {
		return nil, err
	}
	union, err := f.union()
	if err != nil {
		return nil, err
	}
	var wantEst []float64
	if w.reads() {
		h, err := m.rm.EstimateFromAggregate(union)
		if err != nil {
			return nil, err
		}
		wantEst = h.Mass
	}

	traceBuf := -1
	if traced {
		// Room for every request of the pass, on every daemon.
		traceBuf = w.calls(p.ops) + 256
	}
	repeats := 1
	if !traced {
		repeats = setupRepeats
	}
	var inst *instance
	for k := 0; k < repeats; k++ {
		if inst != nil {
			e.close(inst)
		}
		inst, err = e.setup(ctx, p, f, traceBuf, wantEst)
		if err != nil {
			return nil, err
		}
	}
	defer e.close(inst)

	daemons := inst.all()
	before, err := collectStats(ctx, daemons)
	if err != nil {
		return nil, err
	}
	hits0, misses0, err := cacheCounters(ctx, inst.data[0].url)
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuTicks(daemons)
	if err != nil {
		return nil, err
	}
	var tr *trace.Tracer
	if traced {
		tr = trace.NewTracer("loadbench", w.calls(p.ops))
	}
	genBase := f.Dirs[0].Generation
	// Write back what the setups left dirty, so the loop's fsyncs wait
	// for the loop's own writes only.
	syscall.Sync()
	t0 := time.Now()
	stopSteal := recordSteal(t0)
	samples, iters, err := driveOps(ctx, w, inst.front.url, in, seed, genBase, tr)
	p.elapsed = time.Since(t0)
	p.steal = stopSteal()
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuTicks(daemons)
	if err != nil {
		return nil, err
	}
	p.cpu = time.Duration(cpu1-cpu0) * clockTick
	for _, d := range daemons {
		kb, err := d.peakRSSKB()
		if err != nil {
			return nil, err
		}
		p.rssKB += kb
	}
	p.iters = iters
	p.clientMs = map[string]float64{}
	slices.SortFunc(samples, func(a, b sample) int { return cmp.Compare(a.end, b.end) })
	for _, s := range samples {
		p.attempted++
		if s.err != nil {
			p.failed++
			if len(p.failures) < 5 {
				p.failures = append(p.failures, s.err.Error())
			}
			continue
		}
		p.samples[s.kind] = append(p.samples[s.kind], s.ms)
		p.done = append(p.done, s)
		if s.traceID != "" {
			p.clientMs[s.traceID] = s.ms
		}
	}

	after, err := collectStats(ctx, daemons)
	if err != nil {
		return nil, err
	}
	hits1, misses1, err := cacheCounters(ctx, inst.data[0].url)
	if err != nil {
		return nil, err
	}
	p.cacheHits, p.cacheMisses = hits1-hits0, misses1-misses0

	// Output check: the served aggregate is the in-process merge of the
	// fixture and every submitted shard.
	want := union.Clone()
	for i := 0; i < p.submits; i++ {
		if err := want.Merge(in.aggs[i%len(in.aggs)]); err != nil {
			return nil, err
		}
	}
	if err := checkAggregate(ctx, inst.front.url, want); err != nil {
		return nil, err
	}
	if w.fleet {
		for _, d := range inst.data {
			blob, err := newClient(d.url).FetchAggregateBlob(ctx)
			if err != nil {
				return nil, err
			}
			p.pullBytes += float64(len(blob))
		}
	}
	if err := p.countExact(before, after); err != nil {
		return nil, err
	}

	if traced {
		p.clientTraces = tr.Snapshot(0, "", 0)
		p.daemonTraces = map[string][]trace.TraceData{}
		for _, d := range daemons {
			tds, err := fetchTraces(ctx, d.url)
			if err != nil {
				return nil, err
			}
			p.daemonTraces[d.name] = tds
		}
		if err := e.directCalls(p, f, m, in, want); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// setup starts the workload's daemons on a fresh copy of the fixture
// and times process start until the seeded state is recovered, /healthz
// answers and (on workloads that read) the first estimate is served. It
// then checks the recovered state and the first estimate.
func (e *env) setup(ctx context.Context, p *pass, f *fixture, traceBuf int, wantEst []float64) (*instance, error) {
	copies, err := e.copyFixture(f)
	if err != nil {
		return nil, err
	}
	// Write the copy back before timing, so the daemon's first fsyncs do
	// not wait for the copy's dirty pages.
	syscall.Sync()
	t0 := time.Now()
	inst, err := e.launch(ctx, p.w, copies, traceBuf, false)
	if err != nil {
		return nil, err
	}
	inst.runDir = filepath.Dir(copies[0])
	if err := p.firstAnswer(ctx, inst, f, t0, wantEst); err != nil {
		e.close(inst)
		return nil, err
	}
	return inst, nil
}

// firstAnswer finishes a setup: it waits for /healthz and the first
// estimate, records the setup time, and checks the recovered state.
func (p *pass) firstAnswer(ctx context.Context, inst *instance, f *fixture, t0 time.Time, wantEst []float64) error {
	front := newClient(inst.front.url)
	if err := front.Health(ctx); err != nil {
		return err
	}
	var est *collector.EstimateResponse
	if p.w.reads() {
		var err error
		if _, est, err = front.Estimate(ctx); err != nil {
			return fmt.Errorf("first estimate: %w", err)
		}
	}
	p.setupS = append(p.setupS, time.Since(t0).Seconds())

	if est != nil && !slices.Equal(est.Mass, wantEst) {
		return fmt.Errorf("the first estimate differs from the in-process EstimateFromAggregate of the fixture")
	}
	for i, d := range inst.data {
		st, err := newClient(d.url).Stats(ctx)
		if err != nil {
			return err
		}
		want := f.Dirs[i]
		if st.Durability == nil || st.Durability.SnapshotSeq != want.SnapshotSeq ||
			st.Durability.RecordsReplayed != want.RecordsReplayed ||
			st.Generation != want.Generation || st.Reports != want.Reports {
			return fmt.Errorf("%s recovered %+v (generation %d, %g reports), fixture has %+v",
				d.name, st.Durability, st.Generation, st.Reports, want)
		}
	}
	return nil
}

func collectStats(ctx context.Context, ds []*daemon) ([]daemonStats, error) {
	out := make([]daemonStats, len(ds))
	for i, d := range ds {
		if err := getJSON(ctx, d.url+"/v1/stats", &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func cpuTicks(ds []*daemon) (uint64, error) {
	var sum uint64
	for _, d := range ds {
		t, err := d.cpuTicks()
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

func getJSON(ctx context.Context, url string, v any) error {
	body, err := get(ctx, url)
	if err != nil {
		return err
	}
	defer body.Close()
	return json.NewDecoder(body).Decode(v)
}

func get(ctx context.Context, url string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return resp.Body, nil
}

// cacheCounters reads a collector's estimate-cache hit and miss
// counters from /metrics.
func cacheCounters(ctx context.Context, url string) (hits, misses float64, err error) {
	body, err := get(ctx, url+"/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer body.Close()
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		for prefix, dst := range map[string]*float64{
			`dpspatial_query_cache_hits_total{kind="estimate"} `:   &hits,
			`dpspatial_query_cache_misses_total{kind="estimate"} `: &misses,
		} {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				if *dst, err = strconv.ParseFloat(v, 64); err != nil {
					return 0, 0, err
				}
			}
		}
	}
	return hits, misses, sc.Err()
}

func fetchTraces(ctx context.Context, url string) ([]trace.TraceData, error) {
	var resp struct {
		Traces []trace.TraceData `json:"traces"`
	}
	if err := getJSON(ctx, url+"/v1/traces", &resp); err != nil {
		return nil, err
	}
	return resp.Traces, nil
}

// countExact derives the pass's exact counts from the daemons' stats
// before and after the loop, and checks the ones the workload fixes
// outright: one decode per fresh read and none per cached read, one
// route attempt per fleet submission. The EM iterations of the run's
// decodes depend on the data, so they are kept apart, to be compared
// only with runs of the same seed.
func (p *pass) countExact(before, after []daemonStats) error {
	var snaps, fsyncs, walBytes, decodes float64
	for i := range after {
		a, b := after[i], before[i]
		decodes += float64(a.Estimates - b.Estimates)
		if a.Durability != nil && b.Durability != nil {
			snaps += float64(a.Durability.SnapshotsWritten - b.Durability.SnapshotsWritten)
			fsyncs += float64(a.Durability.WALFsyncs - b.Durability.WALFsyncs)
			walBytes += float64(a.Durability.WALBytesWritten - b.Durability.WALBytesWritten)
		}
	}
	fresh := 0
	if p.w.reads() {
		fresh = p.ops
	}
	if int(decodes) != fresh {
		return fmt.Errorf("%s: %g decodes for %d fresh reads: something decoded outside the fresh reads", p.w.name, decodes, fresh)
	}
	reports := float64(p.submits) * shardReports
	if p.w.name == "ingest" {
		reports = float64(p.submits) * streamReports
	}
	p.exact["decodes"] = decodes
	p.exact["snapshots"] = snaps
	p.exact["wal_fsyncs"] = fsyncs
	p.exact["wal_bytes_per_report"] = walBytes / reports
	if len(p.iters) > 0 {
		total := 0
		for _, it := range p.iters {
			total += it
		}
		p.seeded["em_iters"] = float64(total)
	}
	if p.w.fleet {
		sup, b := after[len(after)-1], before[len(before)-1]
		attempts := float64(sup.Routed - b.Routed + sup.Failovers - b.Failovers)
		if int(sup.Routed-b.Routed) != p.submits || attempts != float64(p.submits) {
			return fmt.Errorf("fleet: %g route attempts for %d routed of %d submissions", attempts, sup.Routed-b.Routed, p.submits)
		}
		p.exact["route_attempts_per_submit"] = attempts / float64(p.submits)
		p.exact["pull_bytes_per_read"] = p.pullBytes
	}
	return nil
}

// checkExact compares the pass's exact counts with those the first run
// in this checkout recorded for the same workload, size, binary and
// tracing — and, for the seeded counts, the same seed: any drift is
// hidden nondeterminism and fails the run.
func (e *env) checkExact(p *pass) error {
	size := "full"
	if e.tiny {
		size = "tiny"
	}
	key := fmt.Sprintf("%s-%s-%s-traced%v-ops%d", p.w.name, size, e.binKey, p.traced, p.ops)
	if err := e.matchFirstRun(p.w.name, key, p.exact); err != nil {
		return err
	}
	return e.matchFirstRun(p.w.name, fmt.Sprintf("%s-seed%d", key, p.seed), p.seeded)
}

// matchFirstRun records counts under key on the first call and, on
// every later one, fails unless counts match that record exactly.
func (e *env) matchFirstRun(workload, key string, counts map[string]float64) error {
	dir := filepath.Join(e.work, "exact")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, key+".json")
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		data, err := json.MarshalIndent(counts, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return err
	}
	var first map[string]float64
	if err := json.Unmarshal(data, &first); err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	for k, v := range first {
		got, ok := counts[k]
		if !ok {
			return fmt.Errorf("%s: exact count %s is missing; the checkout's first run had %v", workload, k, v)
		}
		if got != v {
			return fmt.Errorf("%s: exact count %s drifted: %v, the checkout's first run had %v", workload, k, got, v)
		}
	}
	if len(first) != len(counts) {
		return fmt.Errorf("%s: exact counts %v do not match the checkout's first run %v", workload, counts, first)
	}
	return nil
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
