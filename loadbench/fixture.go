package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dpspatial/internal/collector"
	"dpspatial/internal/fo"
	"dpspatial/internal/rng"
)

// fixtureSeed seeds every fixture. Fixtures are independent of the run
// seed so they are built once per checkout and binary; the run seed
// generates the requests a run sends.
const fixtureSeed = 20251016

// fixture is a seeded set of durable data directories — one per
// collector — built through the daemons themselves and cached under
// the work directory, keyed by workload, size and damctl binary.
type fixture struct {
	dir      string
	Workload string `json:"workload"`
	// Per data directory, what recovery must reproduce.
	Dirs []fixtureDir `json:"dirs"`
}

type fixtureDir struct {
	SnapshotSeq     uint64  `json:"snapshotSeq"`
	RecordsReplayed int     `json:"recordsReplayed"`
	Generation      uint64  `json:"generation"`
	Reports         float64 `json:"reports"`
}

func (f *fixture) dataDir(i int) string { return filepath.Join(f.dir, fmt.Sprintf("data-%d", i)) }
func (f *fixture) aggFile(i int) string { return filepath.Join(f.dir, fmt.Sprintf("agg-%d.dpa", i)) }

// aggregate loads the in-process merge of every shard seeded into data
// directory i.
func (f *fixture) aggregate(i int) (*fo.Aggregate, error) {
	blob, err := os.ReadFile(f.aggFile(i))
	if err != nil {
		return nil, err
	}
	agg := &fo.Aggregate{}
	return agg, agg.UnmarshalBinary(blob)
}

// union is the merge of every data directory's seeded aggregate — what
// the front daemon serves right after setup.
func (f *fixture) union() (*fo.Aggregate, error) {
	var out *fo.Aggregate
	for i := range f.Dirs {
		agg, err := f.aggregate(i)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = agg
		} else if err := out.Merge(agg); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ensureFixture returns the workload's cached fixture, building it
// first when this checkout and binary have none.
func (e *env) ensureFixture(ctx context.Context, w *workloadDef) (*fixture, error) {
	size := "full"
	if e.tiny {
		size = "tiny"
	}
	dir := filepath.Join(e.work, "fixtures", fmt.Sprintf("%s-%s-%s", w.name, size, e.binKey))
	if f, err := loadFixture(dir); err == nil {
		return f, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return nil, err
	}
	t0 := time.Now()
	f, err := e.buildFixture(ctx, w, tmp)
	if err != nil {
		_ = os.RemoveAll(tmp) // a partial fixture is never reused
		return nil, fmt.Errorf("building the %s fixture: %w", w.name, err)
	}
	if err := os.Rename(tmp, dir); err != nil {
		return nil, err
	}
	// Flush the seeding's dirty pages now, so their writeback does not
	// land in the first measured loop.
	syscall.Sync()
	f.dir = dir
	fmt.Fprintf(os.Stderr, "loadbench: built the %s fixture in %.1fs\n", w.name, time.Since(t0).Seconds())
	return f, nil
}

func loadFixture(dir string) (*fixture, error) {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	f := &fixture{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, err
	}
	f.dir = dir
	return f, nil
}

// buildFixture seeds the workload's data directories through real
// daemons in three phases:
//  1. with snapshots deferred, submit the snapshot part — one big shard
//     per directory, then one-report filler shards — and stop with
//     SIGTERM, so the final snapshot covers it all;
//  2. restart under the default flush policy, submit the WAL tail,
//     check each served aggregate against the in-process merge, and end
//     with kill -9, so every later recovery replays the tail;
//  3. recover a copy once and record what /v1/stats reports.
func (e *env) buildFixture(ctx context.Context, w *workloadDef, dir string) (*fixture, error) {
	m, err := loadMechanism(w.mech)
	if err != nil {
		return nil, err
	}
	sz := w.size(e.tiny)
	f := &fixture{dir: dir, Workload: w.name, Dirs: make([]fixtureDir, w.dirs())}
	expect := make([]*fo.Aggregate, w.dirs())
	for i := range expect {
		expect[i] = m.rm.NewAggregate()
		if err := os.MkdirAll(f.dataDir(i), 0o755); err != nil {
			return nil, err
		}
	}
	r := rng.New(fixtureSeed)
	next := 0 // submission counter, for IDs

	// submit sends shards through the front daemon and folds each into
	// the expected aggregate of the directory that acknowledged it.
	submit := func(inst *instance, shards []*fo.Aggregate, blobs [][]byte) error {
		var mu sync.Mutex
		var firstErr error
		var wg sync.WaitGroup
		clients := 2
		if len(blobs) < 2 {
			clients = 1
		}
		base := next
		next += len(blobs)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl := newClient(inst.front.url)
				for i := c; i < len(blobs); i += clients {
					ack, err := cl.SubmitAggregateBlobWithID(ctx, blobs[i], nil, submissionID("fix", 0, base+i))
					mu.Lock()
					if err == nil {
						err = expect[inst.dirOf(ack)].Merge(shards[i])
					}
					if err != nil && firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					if err != nil {
						return
					}
				}
			}(c)
		}
		wg.Wait()
		return firstErr
	}
	filler := func(n int) ([]*fo.Aggregate, [][]byte, error) {
		shards := make([]*fo.Aggregate, n)
		blobs := make([][]byte, n)
		for i := range shards {
			var err error
			if shards[i], blobs[i], err = m.tinyShard(r); err != nil {
				return nil, nil, err
			}
		}
		return shards, blobs, nil
	}

	// Phase 1: the snapshot part.
	dirs := make([]string, w.dirs())
	for i := range dirs {
		dirs[i] = f.dataDir(i)
	}
	inst, err := e.launch(ctx, w, dirs, -1, true)
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.dirs(); i++ {
		// One at a time, so round-robin routing gives each member one.
		agg, blob, err := m.bigShard(r, sz.bigReports)
		if err != nil {
			inst.kill()
			return nil, err
		}
		if err := submit(inst, []*fo.Aggregate{agg}, [][]byte{blob}); err != nil {
			inst.kill()
			return nil, err
		}
	}
	shards, blobs, err := filler(w.dirs() * (sz.snapshotShards - 1))
	if err == nil {
		err = submit(inst, shards, blobs)
	}
	if err != nil {
		inst.kill()
		return nil, err
	}
	inst.terminate()

	// Phase 2: the WAL tail.
	inst, err = e.launch(ctx, w, dirs, -1, false)
	if err != nil {
		return nil, err
	}
	shards, blobs, err = filler(w.dirs() * sz.tailShards)
	if err == nil {
		err = submit(inst, shards, blobs)
	}
	if err == nil {
		for i, d := range inst.data {
			if err = checkAggregate(ctx, d.url, expect[i]); err != nil {
				break
			}
		}
	}
	inst.kill()
	if err != nil {
		return nil, err
	}
	for i, agg := range expect {
		blob, err := agg.MarshalBinary()
		if err != nil {
			return nil, err
		}
		if w.fleet && len(blob) != m.denseLen() {
			return nil, fmt.Errorf("member %d aggregate encodes sparse; pull sizes would vary", i)
		}
		if err := os.WriteFile(f.aggFile(i), blob, 0o644); err != nil {
			return nil, err
		}
	}

	// Phase 3: record what recovery reproduces.
	copies, err := e.copyFixture(f)
	if err != nil {
		return nil, err
	}
	inst, err = e.launch(ctx, w, copies, -1, false)
	if err != nil {
		return nil, err
	}
	inst.runDir = filepath.Dir(copies[0])
	defer e.close(inst)
	for i, d := range inst.data {
		st, err := newClient(d.url).Stats(ctx)
		if err != nil {
			return nil, err
		}
		if st.Durability == nil || st.Durability.RecordsReplayed != sz.tailShards {
			return nil, fmt.Errorf("data dir %d recovered without its %d-record WAL tail: %+v", i, sz.tailShards, st.Durability)
		}
		f.Dirs[i] = fixtureDir{
			SnapshotSeq:     st.Durability.SnapshotSeq,
			RecordsReplayed: st.Durability.RecordsReplayed,
			Generation:      st.Generation,
			Reports:         st.Reports,
		}
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return f, os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644)
}

// close kills the instance's daemons and removes its data copies.
func (e *env) close(in *instance) {
	in.kill()
	if in.runDir != "" {
		e.removeRunDir(in.runDir)
	}
}

// copyFixture copies the fixture's data directories into a fresh run
// directory and returns the copies' paths.
func (e *env) copyFixture(f *fixture) ([]string, error) {
	run, err := e.newRunDir(f.Workload)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(f.Dirs))
	for i := range f.Dirs {
		out[i] = filepath.Join(run, fmt.Sprintf("data-%d", i))
		if err := copyTree(f.dataDir(i), out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// instance is one running deployment of a workload: the durable
// collectors (data) and, for the fleet, the supervisor in front.
type instance struct {
	data   []*daemon
	front  *daemon // the daemon clients talk to
	sup    *daemon // nil without a fleet
	runDir string  // the data copies' directory, removed by env.close
}

func (in *instance) all() []*daemon {
	if in.sup != nil {
		return append(append([]*daemon{}, in.data...), in.sup)
	}
	return in.data
}

// dirOf maps an ack to the index of the data directory that merged it.
func (in *instance) dirOf(ack *collector.SubmitResponse) int {
	for i, d := range in.data {
		if ack.Member == d.url {
			return i
		}
	}
	return 0
}

func (in *instance) kill() {
	for _, d := range in.all() {
		d.kill()
	}
}

// terminate stops the collectors gracefully (final snapshot) and the
// supervisor, which holds no durable state, with SIGKILL.
func (in *instance) terminate() {
	if in.sup != nil {
		in.sup.kill()
	}
	for _, d := range in.data {
		d.terminate()
	}
}

// launch starts the workload's daemons over the given data directories.
// traceBuf < 0 disables tracing; deferSnapshots runs the collectors with
// snapshots only at shutdown (fixture seeding only).
func (e *env) launch(ctx context.Context, w *workloadDef, dirs []string, traceBuf int, deferSnapshots bool) (*instance, error) {
	in := &instance{}
	common := []string{"--addr", "127.0.0.1:0", "--cadence", "0", "--trace-buffer", strconv.Itoa(traceBuf)}
	for i, dir := range dirs {
		args := append([]string{"serve", "--data-dir", dir}, common...)
		if !w.fleet {
			args = append(args, "--mech", w.mech, "--d", strconv.Itoa(gridSide), "--eps", strconv.FormatFloat(epsilon, 'g', -1, 64))
		}
		if deferSnapshots {
			args = append(args, "--snapshot-every", "-1")
		}
		d, err := e.startDaemon(ctx, fmt.Sprintf("collector-%d", i), args...)
		if err != nil {
			in.kill()
			return nil, err
		}
		in.data = append(in.data, d)
	}
	in.front = in.data[0]
	if w.fleet {
		urls := make([]string, len(in.data))
		for i, d := range in.data {
			urls[i] = d.url
		}
		args := append([]string{"supervise", "--member", strings.Join(urls, ","),
			"--mech", w.mech, "--d", strconv.Itoa(gridSide), "--eps", strconv.FormatFloat(epsilon, 'g', -1, 64)}, common...)
		sup, err := e.startDaemon(ctx, "supervisor", args...)
		if err != nil {
			in.kill()
			return nil, err
		}
		in.sup, in.front = sup, sup
	}
	return in, nil
}

// newClient is a collector client with retries off, so every failure is
// counted, and its own keep-alive connection pool.
func newClient(url string) *collector.Client {
	c := collector.NewClient(url)
	c.MaxRetries = 0
	c.HTTPClient = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
	}
	return c
}

// checkAggregate fails unless the daemon's GET /v1/aggregate is
// byte-identical to the in-process merge.
func checkAggregate(ctx context.Context, url string, want *fo.Aggregate) error {
	got, err := newClient(url).FetchAggregateBlob(ctx)
	if err != nil {
		return err
	}
	blob, err := want.MarshalBinary()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, blob) {
		return fmt.Errorf("%s serves an aggregate that differs from the in-process merge (%d vs %d bytes)", url, len(got), len(blob))
	}
	return nil
}
