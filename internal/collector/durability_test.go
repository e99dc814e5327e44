package collector_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"dpspatial/internal/collector"
	"dpspatial/internal/durable"
	"dpspatial/internal/fo"
	"dpspatial/internal/rng"
	"dpspatial/internal/sam"
)

func durPipeline(mech *sam.Mechanism, d int, eps float64) *collector.Pipeline {
	return &collector.Pipeline{
		Mech: "DAM", D: d, Eps: eps,
		Scheme: mech.Scheme(), Shape: mech.ReportShape(),
		Domain: collector.DomainSpec{MinX: 0, MinY: 0, Side: 1},
	}
}

func durBuild(t *testing.T) func(p *collector.Pipeline) (collector.Estimator, error) {
	t.Helper()
	return func(p *collector.Pipeline) (collector.Estimator, error) {
		dom, err := p.GridDomain()
		if err != nil {
			return nil, err
		}
		return sam.NewDAM(dom, p.Eps)
	}
}

// startDurable opens (or reopens) dir as a durable store and serves a
// collector over it. The collector is NOT closed automatically — crash
// tests abandon it, which is the point.
func startDurable(t *testing.T, dir string, cfg collector.Config) (*collector.Client, *collector.Collector, *durable.Store) {
	t.Helper()
	st, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	cfg.Store = st
	c, err := collector.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c)
	t.Cleanup(srv.Close)
	return collector.NewClient(srv.URL), c, st
}

func marshalShards(t *testing.T, shards []*fo.Aggregate, prefix string) (blobs [][]byte, ids []string) {
	t.Helper()
	for i, s := range shards {
		b, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, b)
		ids = append(ids, fmt.Sprintf("%s-%d", prefix, i))
	}
	return blobs, ids
}

// TestDurableCrashAtEveryWALRecord is the headline fault-injection
// schedule: a collector accepts submissions into a WAL-only data
// directory (no snapshot — the hardest recovery), then the "process"
// crashes with the WAL truncated at every record boundary AND torn
// mid-record. Every crash point must recover, answer replayed
// submission IDs of persisted shards with their original acks, and —
// after the client re-submits everything — serve an estimate
// byte-identical to the uninterrupted run's.
func TestDurableCrashAtEveryWALRecord(t *testing.T) {
	const d, eps, nShards = 6, 2.0, 4
	mech := newDAM(t, d, eps)
	pip := durPipeline(mech, d, eps)
	shards := accumulateShards(t, mech, nShards, 99)
	blobs, ids := marshalShards(t, shards, "crash")
	ctx := context.Background()

	// The uninterrupted reference run.
	refClient, _, _ := startDurable(t, t.TempDir(), collector.Config{
		Mechanism: newDAM(t, d, eps), Pipeline: pip, SnapshotEvery: -1,
	})
	for i := range shards {
		if _, err := refClient.SubmitAggregateBlobWithID(ctx, blobs[i], pip, ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	_, refResp, err := refClient.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// The master crash image: same submissions, then the process dies
	// without a snapshot or graceful close — the WAL alone carries the
	// acknowledged state.
	masterDir := t.TempDir()
	mClient, _, mStore := startDurable(t, masterDir, collector.Config{
		Mechanism: newDAM(t, d, eps), Pipeline: pip, SnapshotEvery: -1,
	})
	for i := range shards {
		if _, err := mClient.SubmitAggregateBlobWithID(ctx, blobs[i], pip, ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := mStore.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(masterDir, durable.WALFile)
	walData, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	ends, err := durable.RecordEnds(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// One pipeline record, then one record per submission.
	if len(ends) != nShards+2 {
		t.Fatalf("WAL has %d record boundaries, want %d", len(ends), nShards+2)
	}

	// Crash points: every record boundary, plus a torn write inside
	// every record.
	var cuts []int64
	for i, e := range ends {
		cuts = append(cuts, e)
		if i > 0 {
			cuts = append(cuts, (ends[i-1]+e)/2)
		}
	}
	for _, cut := range cuts {
		survivors := 0
		for i := 1; i < len(ends) && ends[i] <= cut; i++ {
			survivors++
		}
		persisted := survivors - 1 // minus the pipeline record
		if persisted < 0 {
			persisted = 0
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, durable.WALFile), walData[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// Restart in adopt mode, so a crash before the pipeline record
		// landed also exercises re-adoption from the re-submissions.
		client, _, st := startDurable(t, dir, collector.Config{Build: durBuild(t), SnapshotEvery: -1})
		if ds := st.Stats(); ds.RecordsReplayed != survivors {
			t.Fatalf("cut at %d: replayed %d WAL records, want %d", cut, ds.RecordsReplayed, survivors)
		}
		// The client re-submits every shard under its original ID: the
		// ones that survived the crash must answer with their original
		// acks instead of merging twice.
		for i := range shards {
			resp, err := client.SubmitAggregateBlobWithID(ctx, blobs[i], pip, ids[i])
			if err != nil {
				t.Fatalf("cut at %d: re-submitting shard %d: %v", cut, i, err)
			}
			if wantDup := i < persisted; resp.Duplicate != wantDup {
				t.Fatalf("cut at %d: shard %d Duplicate = %v, want %v", cut, i, resp.Duplicate, wantDup)
			}
			if resp.Generation != uint64(i+1) {
				t.Fatalf("cut at %d: shard %d acked generation %d, want %d", cut, i, resp.Generation, i+1)
			}
		}
		_, resp, err := client.Estimate(ctx)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if resp.Reports != refResp.Reports || resp.Generation != refResp.Generation {
			t.Fatalf("cut at %d: recovered %g reports gen %d, want %g gen %d",
				cut, resp.Reports, resp.Generation, refResp.Reports, refResp.Generation)
		}
		if !reflect.DeepEqual(resp.Mass, refResp.Mass) {
			t.Fatalf("cut at %d: estimate diverged from the uninterrupted run", cut)
		}
	}
}

// TestDurableCrashMidSnapshotRename injects crashes into both halves of
// the snapshot's atomic-rename window while submissions (and therefore
// snapshot attempts) keep flowing. Either way, a restart must recover
// every acknowledged submission and the byte-identical estimate.
func TestDurableCrashMidSnapshotRename(t *testing.T) {
	const d, eps, nShards = 6, 2.0, 4
	mech := newDAM(t, d, eps)
	pip := durPipeline(mech, d, eps)
	shards := accumulateShards(t, mech, nShards, 123)
	blobs, ids := marshalShards(t, shards, "snapcrash")
	ctx := context.Background()

	refClient, _ := startServer(t, newDAM(t, d, eps), pip, 0)
	for i := range shards {
		if _, err := refClient.SubmitAggregateBlob(ctx, blobs[i], pip); err != nil {
			t.Fatal(err)
		}
	}
	_, refResp, err := refClient.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}

	for _, phase := range []string{"before-rename", "after-rename"} {
		t.Run(phase, func(t *testing.T) {
			dir := t.TempDir()
			st, err := durable.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			boom := fmt.Errorf("injected crash %s", phase)
			if phase == "before-rename" {
				st.Hooks.BeforeSnapshotRename = func() error { return boom }
			} else {
				st.Hooks.AfterSnapshotRename = func() error { return boom }
			}
			c, err := collector.New(collector.Config{
				Mechanism: newDAM(t, d, eps), Pipeline: pip,
				Store: st, SnapshotEvery: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(c)
			client := collector.NewClient(srv.URL)
			// Submissions must succeed even though every snapshot attempt
			// "crashes": the WAL already holds them.
			for i := range shards {
				if _, err := client.SubmitAggregateBlobWithID(ctx, blobs[i], pip, ids[i]); err != nil {
					t.Fatalf("shard %d: %v", i, err)
				}
			}
			// Crash: abandon the collector without its graceful Close.
			srv.Close()
			st.Close()

			client2, _, _ := startDurable(t, dir, collector.Config{Build: durBuild(t), SnapshotEvery: -1})
			if phase == "before-rename" {
				if _, err := os.Stat(filepath.Join(dir, durable.SnapshotTmpFile)); !os.IsNotExist(err) {
					t.Fatalf("stale snapshot temp survived recovery: %v", err)
				}
			}
			// Every submission was acknowledged, so every replay is a
			// duplicate answered with its original ack.
			for i := range shards {
				resp, err := client2.SubmitAggregateBlobWithID(ctx, blobs[i], pip, ids[i])
				if err != nil {
					t.Fatalf("re-submitting shard %d: %v", i, err)
				}
				if !resp.Duplicate || resp.Generation != uint64(i+1) {
					t.Fatalf("shard %d: Duplicate=%v generation=%d, want replayed original ack", i, resp.Duplicate, resp.Generation)
				}
			}
			_, resp, err := client2.Estimate(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Reports != refResp.Reports || resp.Generation != refResp.Generation ||
				!reflect.DeepEqual(resp.Mass, refResp.Mass) {
				t.Fatalf("estimate diverged after %s crash", phase)
			}
		})
	}
}

// ackEnvelopeJSON builds the WAL ack-envelope payload the way the
// collector writes it, for hand-crafting corrupt stores.
func ackEnvelopeJSON(t *testing.T, kind string, ack collector.SubmitResponse) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Kind string                   `json:"kind"`
		Ack  collector.SubmitResponse `json:"ack"`
	}{kind, ack})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func pipelineJSON(t *testing.T, p *collector.Pipeline) []byte {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDurableRefusesCorruptState drives the refusal matrix: a torn
// final WAL write is tolerated, but a foreign-pipeline store, a garbage
// aggregate blob, a garbage snapshot state, or an ack that contradicts
// the replayed state must refuse startup rather than serve bad data.
func TestDurableRefusesCorruptState(t *testing.T) {
	const d, eps = 6, 2.0
	mech := newDAM(t, d, eps)
	pip := durPipeline(mech, d, eps)
	shard := accumulateShards(t, mech, 1, 7)[0]
	blob, err := shard.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	goodAck := collector.SubmitResponse{
		Scheme: mech.Scheme(), Reports: shard.N, TotalReports: shard.N, Generation: 1,
	}

	// seed writes a WAL with a pipeline record and one submission.
	seed := func(t *testing.T, sub durable.Record) string {
		t.Helper()
		dir := t.TempDir()
		st, err := durable.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := st.Append(
			durable.Record{Type: durable.RecordPipeline, Meta: pipelineJSON(t, pip)},
			sub,
		); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	goodSub := durable.Record{
		Type: durable.RecordSubmission, ID: "s1",
		Meta: ackEnvelopeJSON(t, "aggregate", goodAck), Blob: blob,
	}
	mustRefuse := func(t *testing.T, dir string, cfg collector.Config, fragment string) {
		t.Helper()
		st, err := durable.Open(dir)
		if err != nil {
			t.Fatalf("store open must succeed (the damage is semantic): %v", err)
		}
		defer st.Close()
		cfg.Store = st
		if _, err := collector.New(cfg); err == nil {
			t.Fatal("collector.New accepted corrupt durable state")
		} else if !strings.Contains(err.Error(), "recovering durable state") || !strings.Contains(err.Error(), fragment) {
			t.Fatalf("refusal %q does not mention %q", err, fragment)
		}
	}

	t.Run("foreign scheme", func(t *testing.T) {
		dir := seed(t, goodSub)
		// A pre-built mechanism over a different grid must refuse the
		// stored state instead of merging a foreign data directory.
		foreign := newDAM(t, 5, eps)
		mustRefuse(t, dir, collector.Config{Mechanism: foreign, Pipeline: durPipeline(foreign, 5, eps)}, "foreign")
	})

	t.Run("foreign domain", func(t *testing.T) {
		dir := seed(t, goodSub)
		// Same scheme, different geography: the scheme string does not
		// encode the domain, so the pinned-pipeline cross-check is what
		// must catch it.
		shifted := *pip
		shifted.Domain = collector.DomainSpec{MinX: 5, MinY: 5, Side: 2}
		mustRefuse(t, dir, collector.Config{
			Mechanism: newDAM(t, d, eps), Pipeline: &shifted,
		}, "does not match")
	})

	t.Run("garbage shard blob", func(t *testing.T) {
		bad := goodSub
		bad.Blob = []byte("certainly not a DPA blob")
		dir := seed(t, bad)
		mustRefuse(t, dir, collector.Config{Build: durBuild(t)}, "shard")
	})

	t.Run("contradicting ack", func(t *testing.T) {
		bad := goodSub
		lie := goodAck
		lie.Generation = 5
		bad.Meta = ackEnvelopeJSON(t, "aggregate", lie)
		dir := seed(t, bad)
		mustRefuse(t, dir, collector.Config{Build: durBuild(t)}, "does not match")
	})

	t.Run("garbage snapshot state", func(t *testing.T) {
		dir := t.TempDir()
		st, err := durable.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		meta, err := json.Marshal(map[string]any{
			"scheme": mech.Scheme(), "pipeline": pip, "generation": 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WriteSnapshot(meta, []byte("garbage aggregate bytes"), nil); err != nil {
			t.Fatal(err)
		}
		st.Close()
		mustRefuse(t, dir, collector.Config{Build: durBuild(t)}, "snapshot aggregate")
	})

	t.Run("undecodable snapshot ack", func(t *testing.T) {
		for _, tc := range undecodableAcks {
			t.Run(tc.name, func(t *testing.T) {
				dir := ackSnapshotDir(t, pip, blob, []durable.AckEntry{{ID: "s1", Ack: []byte(tc.ack)}})
				mustRefuse(t, dir, collector.Config{Build: durBuild(t)}, "snapshot ack")
			})
		}
	})

	t.Run("torn final record is tolerated", func(t *testing.T) {
		dir := seed(t, goodSub)
		walPath := filepath.Join(dir, durable.WALFile)
		data, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
			t.Fatal(err)
		}
		client, _, st := startDurable(t, dir, collector.Config{Build: durBuild(t)})
		if ds := st.Stats(); ds.RecordsReplayed != 1 || ds.TornTailBytes == 0 {
			t.Fatalf("torn tail: replayed %d records, %d torn bytes", ds.RecordsReplayed, ds.TornTailBytes)
		}
		// The torn (never-acknowledged) submission re-submits cleanly.
		resp, err := client.SubmitAggregateBlobWithID(context.Background(), blob, pip, "s1")
		if err != nil {
			t.Fatal(err)
		}
		if resp.Duplicate || resp.Generation != 1 {
			t.Fatalf("torn submission replay: %+v", resp)
		}
	})
}

// ackCase is a named snapshot ack body.
type ackCase struct{ name, ack string }

// undecodableAcks are snapshot acks that json.Unmarshal refuses into a
// SubmitResponse, each of which must refuse recovery.
var undecodableAcks = []ackCase{
	{"string generation", `{"generation":"one"}`},
	{"reports out of range", `{"scheme":"s","reports":1e999,"totalReports":1,"generation":1}`},
	{"negative generation", `{"scheme":"s","reports":1,"totalReports":1,"generation":-1}`},
	{"fractional generation", `{"scheme":"s","reports":1,"totalReports":1,"generation":1.5}`},
	{"generation past 2^64", `{"scheme":"s","reports":1,"totalReports":1,"generation":18446744073709551616}`},
	{"truncated", `{"scheme":"s"`},
	{"array", `[]`},
}

// otherFormAcks are snapshot acks that json.Unmarshal reads into a
// SubmitResponse but that are not in the form json.Marshal writes.
var otherFormAcks = []ackCase{
	{"spaced", `{"scheme": "s", "reports": 2, "totalReports": 3, "generation": 4}`},
	{"reordered keys", `{"generation":4,"totalReports":3,"reports":2,"scheme":"s"}`},
	{"escaped scheme", `{"scheme":"a\u003cb","reports":2,"totalReports":3,"generation":4}`},
	{"unknown field", `{"scheme":"s","reports":2,"totalReports":3,"generation":4,"extra":[1,{"x":null}]}`},
	{"null", `null`},
	{"largest generation", `{"scheme":"s","reports":2,"totalReports":3,"generation":18446744073709551615}`},
	{"fractional reports", `{"scheme":"s","reports":0.5,"totalReports":3,"generation":4}`},
	{"exponent reports", `{"scheme":"s","reports":1e3,"totalReports":3,"generation":4}`},
	{"trailing space", `{"scheme":"s","reports":2,"totalReports":3,"generation":4} `},
}

// ackSnapshotDir writes a data directory whose snapshot holds one
// aggregate shard under pip and the given acks.
func ackSnapshotDir(t *testing.T, pip *collector.Pipeline, blob []byte, acks []durable.AckEntry) string {
	t.Helper()
	dir := t.TempDir()
	st, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	meta, err := json.Marshal(map[string]any{
		"scheme": pip.Scheme, "pipeline": pip, "generation": 1, "aggregateShards": 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(meta, blob, acks); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestDurableRecoversOtherFormSnapshotAcks: a snapshot ack that
// json.Unmarshal reads but that is not in json.Marshal's form still
// recovers, and a replay of its ID answers what json.Unmarshal of the
// stored bytes gives, marked duplicate.
func TestDurableRecoversOtherFormSnapshotAcks(t *testing.T) {
	const d, eps = 6, 2.0
	mech := newDAM(t, d, eps)
	pip := durPipeline(mech, d, eps)
	blob, err := accumulateShards(t, mech, 1, 7)[0].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var acks []durable.AckEntry
	for _, tc := range otherFormAcks {
		acks = append(acks, durable.AckEntry{ID: tc.name, Ack: []byte(tc.ack)})
	}
	client, _, _ := startDurable(t, ackSnapshotDir(t, pip, blob, acks), collector.Config{Build: durBuild(t)})
	for _, e := range acks {
		var want collector.SubmitResponse
		if err := json.Unmarshal(e.Ack, &want); err != nil {
			t.Fatal(err)
		}
		want.Duplicate = true
		got, err := client.SubmitAggregateBlobWithID(context.Background(), blob, pip, e.ID)
		if err != nil {
			t.Fatal(err)
		}
		if *got != want {
			t.Fatalf("replay of %q = %+v, want %+v", e.ID, *got, want)
		}
	}
}

// FuzzSnapshotAck pins recovery's check of a snapshot ack to
// json.Unmarshal into a SubmitResponse: it accepts exactly what
// json.Unmarshal accepts, and otherwise fails with json.Unmarshal's
// error text.
func FuzzSnapshotAck(f *testing.F) {
	for _, resp := range []collector.SubmitResponse{
		{Scheme: "DAM/d=15", Reports: 1, TotalReports: 10000001, Generation: 65536},
		{Scheme: "DAM/d=15", Reports: 200, TotalReports: 1e6, Generation: 7, TraceID: "0af7651916cd43dd8448eb211c80319c"},
		{Scheme: "DAM/d=15", Reports: 200, TotalReports: 1e6, Generation: 7, TraceID: "0af7651916cd43dd8448eb211c80319c", Member: "http://10.0.0.1:9311"},
		{Scheme: "DAM/d=15", Reports: 0.25, TotalReports: 1e21, Generation: 1 << 63, Member: "http://m", Duplicate: true},
		{Scheme: "a<b>&c\u2028", TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Duplicate: true},
		{},
	} {
		ack, err := json.Marshal(&resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ack)
	}
	for _, tc := range slices.Concat(undecodableAcks, otherFormAcks) {
		f.Add([]byte(tc.ack))
	}
	// The longest numbers the check reads without decoding, one digit
	// more, and a leading zero.
	f.Add([]byte(`{"scheme":"s","reports":999999999999999,"totalReports":0,"generation":9999999999999999999}`))
	f.Add([]byte(`{"scheme":"s","reports":1000000000000000,"totalReports":0,"generation":10000000000000000000}`))
	f.Add([]byte(`{"scheme":"s","reports":1,"totalReports":1,"generation":01}`))
	f.Fuzz(func(t *testing.T, ack []byte) {
		var resp collector.SubmitResponse
		want := json.Unmarshal(ack, &resp)
		got := collector.CheckAck(ack)
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Fatalf("check of %q = %v, json.Unmarshal gives %v", ack, got, want)
		}
	})
}

// TestDurableRefusesStoredPinOfWrongShape: a data directory whose stored
// pin claims a shape its mechanism does not have refuses recovery with
// the stored-pipeline text, whether the collector adopts its mechanism
// or starts pinned.
func TestDurableRefusesStoredPinOfWrongShape(t *testing.T) {
	mech := newDAM(t, 5, 2.0)
	lying := durPipeline(mech, 5, 2.0)
	lying.Shape = []int{7}
	for name, cfg := range map[string]collector.Config{
		"adopt mode": {Build: durBuild(t)},
		"pinned":     {Mechanism: mech, Pipeline: durPipeline(mech, 5, 2.0)},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := durable.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Append(durable.Record{Type: durable.RecordPipeline, Meta: pipelineJSON(t, lying)}); err != nil {
				t.Fatal(err)
			}
			st.Close()
			if cfg.Store, err = durable.Open(dir); err != nil {
				t.Fatal(err)
			}
			defer cfg.Store.Close()
			if _, err := collector.New(cfg); err == nil || !strings.Contains(err.Error(), "stored pipeline: ") {
				t.Fatalf("recovering a pin of shape %v answered %v, want a stored-pipeline refusal", lying.Shape, err)
			}
		})
	}
}

// TestNewRefusesBareMechanism checks that collector.New, like fleet.New,
// refuses a pre-built Mechanism without its Pipeline, and refuses it
// before it replays the store: a collector built next over the same
// store still recovers every submission.
func TestNewRefusesBareMechanism(t *testing.T) {
	const d, eps = 5, 2.0
	mech := newDAM(t, d, eps)
	shard := accumulateShards(t, mech, 1, 71)[0]
	dir := t.TempDir()
	client, _, _ := startDurable(t, dir, collector.Config{Build: durBuild(t), SnapshotEvery: -1})
	if _, err := client.SubmitAggregate(context.Background(), shard, durPipeline(mech, d, eps)); err != nil {
		t.Fatal(err)
	}

	st, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := collector.New(collector.Config{Mechanism: mech, Store: st}); err == nil ||
		!strings.Contains(err.Error(), "Pipeline") || strings.Contains(err.Error(), "recovering") {
		t.Fatalf("bare Mechanism: New answered %v, want a Pipeline refusal before recovery", err)
	}
	c, err := collector.New(collector.Config{Build: durBuild(t), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c)
	t.Cleanup(srv.Close)
	stats, err := collector.NewClient(srv.URL).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Generation != 1 || stats.Reports != shard.N {
		t.Fatalf("recovered generation %d, %g reports; want 1, %g", stats.Generation, stats.Reports, shard.N)
	}
}

// TestDurableSnapshotCadenceAndGracefulClose checks the compaction
// lifecycle: snapshots land every SnapshotEvery records, /v1/stats
// exports the counters at the collector tier, a graceful Close flushes
// the WAL tail, and a restart then replays zero records while keeping
// the ack log. An in-memory collector keeps durability out of its
// stats entirely.
func TestDurableSnapshotCadenceAndGracefulClose(t *testing.T) {
	const d, eps, nShards = 6, 2.0, 5
	mech := newDAM(t, d, eps)
	pip := durPipeline(mech, d, eps)
	shards := accumulateShards(t, mech, nShards, 11)
	blobs, ids := marshalShards(t, shards, "cadence")
	ctx := context.Background()

	dir := t.TempDir()
	st, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := collector.New(collector.Config{
		Mechanism: newDAM(t, d, eps), Pipeline: pip, Store: st, SnapshotEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c)
	client := collector.NewClient(srv.URL)
	for i := range shards {
		if _, err := client.SubmitAggregateBlobWithID(ctx, blobs[i], pip, ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Durability == nil {
		t.Fatal("durable collector serves no durability stats")
	}
	if stats.Durability.SnapshotsWritten == 0 || stats.Durability.RecordsAppended < nShards {
		t.Fatalf("durability stats: %+v", stats.Durability)
	}
	srv.Close()
	c.Close() // graceful: flushes the WAL tail into a final snapshot
	st.Close()

	client2, _, st2 := startDurable(t, dir, collector.Config{Build: durBuild(t)})
	if ds := st2.Stats(); ds.RecordsReplayed != 0 {
		t.Fatalf("graceful close left %d WAL records to replay", ds.RecordsReplayed)
	}
	stats2, err := client2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Generation != nShards || stats2.AggregateShards != nShards {
		t.Fatalf("recovered stats: %+v", stats2)
	}
	if stats2.Reports != mergeAll(t, mech, shards).N {
		t.Fatalf("recovered %g reports", stats2.Reports)
	}
	// The ack log came back through the snapshot: replays are duplicates.
	resp, err := client2.SubmitAggregateBlobWithID(ctx, blobs[0], pip, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Duplicate || resp.Generation != 1 {
		t.Fatalf("snapshot ack log lost: %+v", resp)
	}

	// Opt-in contract: without a store the stats carry no durability
	// block at all.
	memClient, _ := startServer(t, newDAM(t, d, eps), pip, 0)
	if _, err := memClient.SubmitAggregateBlob(ctx, blobs[0], pip); err != nil {
		t.Fatal(err)
	}
	memStats, err := memClient.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if memStats.Durability != nil {
		t.Fatalf("in-memory collector reports durability: %+v", memStats.Durability)
	}
}

// TestDurableSnapshotRetrySpacing fails every snapshot attempt for ten
// submissions at SnapshotEvery 2: the collector retries once per two
// records since its last attempt — five attempts, not one per
// submission — and the first attempt that succeeds covers every
// record, so a crash right after it replays nothing.
func TestDurableSnapshotRetrySpacing(t *testing.T) {
	const d, eps, nShards = 6, 2.0, 11
	mech := newDAM(t, d, eps)
	pip := durPipeline(mech, d, eps)
	shards := accumulateShards(t, mech, nShards, 77)
	blobs, ids := marshalShards(t, shards, "retry")
	ctx := context.Background()

	dir := t.TempDir()
	st, err := durable.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var failing atomic.Bool
	var attempts atomic.Int64
	failing.Store(true)
	st.Hooks.BeforeSnapshotRename = func() error {
		attempts.Add(1)
		if failing.Load() {
			return errors.New("injected snapshot failure")
		}
		return nil
	}
	c, err := collector.New(collector.Config{
		Mechanism: newDAM(t, d, eps), Pipeline: pip, Store: st, SnapshotEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c)
	client := collector.NewClient(srv.URL)
	for i := 0; i < 10; i++ {
		if _, err := client.SubmitAggregateBlobWithID(ctx, blobs[i], pip, ids[i]); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	if n := attempts.Load(); n != 5 {
		t.Fatalf("10 submissions made %d snapshot attempts, want 5", n)
	}

	// The WAL holds the pipeline record and 11 submissions once the
	// next one lands: the cadence's next attempt, which now succeeds.
	failing.Store(false)
	if _, err := client.SubmitAggregateBlobWithID(ctx, blobs[10], pip, ids[10]); err != nil {
		t.Fatal(err)
	}
	ds := st.Stats()
	if attempts.Load() != 6 || ds.SnapshotsWritten != 1 || ds.SnapshotSeq != nShards+1 || ds.RecordsSinceSnapshot != 0 {
		t.Fatalf("after the successful attempt: %d attempts, %+v", attempts.Load(), ds)
	}
	srv.Close()
	st.Close() // crash: no graceful close

	client2, _, st2 := startDurable(t, dir, collector.Config{Build: durBuild(t), SnapshotEvery: -1})
	if ds := st2.Stats(); ds.RecordsReplayed != 0 {
		t.Fatalf("the snapshot left %d WAL records to replay", ds.RecordsReplayed)
	}
	for i := range shards {
		resp, err := client2.SubmitAggregateBlobWithID(ctx, blobs[i], pip, ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Duplicate || resp.Generation != uint64(i+1) {
			t.Fatalf("shard %d: Duplicate=%v generation=%d, want the original ack", i, resp.Duplicate, resp.Generation)
		}
	}
}

// TestDurableReportStreamRecovery covers the report-stream submission
// path: streamed shards persist through the same WAL records, and the
// per-kind counters survive a crash.
func TestDurableReportStreamRecovery(t *testing.T) {
	const d, eps = 6, 2.0
	mech := newDAM(t, d, eps)
	pip := durPipeline(mech, d, eps)
	ctx := context.Background()

	dir := t.TempDir()
	client, _, st := startDurable(t, dir, collector.Config{Build: durBuild(t), SnapshotEvery: -1})
	// Two report-stream shards, built reproducibly off one RNG stream.
	r := rng.New(42)
	streams := make([]string, 2)
	for s := range streams {
		var sb strings.Builder
		sb.WriteString(mustJSONLine(t, pip))
		for i := 0; i < mech.NumInputs(); i++ {
			rep, err := mech.Report(i, r)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(&rep)
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(b)
			sb.WriteByte('\n')
		}
		streams[s] = sb.String()
	}
	for i, stream := range streams {
		if _, err := client.SubmitReportStreamWithID(ctx, strings.NewReader(stream), fmt.Sprintf("rep-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	_, want, err := client.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st.Close() // crash: no snapshot, no collector Close

	client2, _, _ := startDurable(t, dir, collector.Config{Build: durBuild(t)})
	stats, err := client2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReportShards != 2 || stats.AggregateShards != 0 {
		t.Fatalf("recovered kind counters: %+v", stats)
	}
	resp, err := client2.SubmitReportStreamWithID(ctx, strings.NewReader(streams[0]), "rep-0")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Duplicate {
		t.Fatal("replayed report stream must answer the original ack")
	}
	_, got, err := client2.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Mass, want.Mass) || got.Reports != want.Reports {
		t.Fatal("report-stream recovery diverged")
	}
}

// TestDurableRefusesInvalidCountBlob posts aggregate blobs whose counts
// no reporter can produce — a NaN, negative, fractional or infinite
// cell, or such an N — to a durable collector. Each answers 400 before
// adoption or any WAL append, and the generation, the served aggregate
// bytes and the WAL record count stay where they were.
func TestDurableRefusesInvalidCountBlob(t *testing.T) {
	mech := newDAM(t, 5, 1.8)
	pipeline := durPipeline(mech, 5, 1.8)
	client, _, st := startDurable(t, t.TempDir(), collector.Config{Build: durBuild(t)})
	ctx := context.Background()
	shards := accumulateShards(t, mech, 2, 13)
	refuse := func(v float64, inN bool) {
		t.Helper()
		shard := shards[1].Clone()
		if inN {
			shard.N = v
		} else {
			shard.Planes[0][3] = v
		}
		blob, err := shard.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var se *collector.StatusError
		if _, err := client.SubmitAggregateBlob(ctx, blob, pipeline); !errors.As(err, &se) || se.StatusCode != http.StatusBadRequest {
			t.Fatalf("count %v (in N: %v): %v, want a 400", v, inN, err)
		}
	}

	// Before adoption: the refused shard must not pin the pipeline.
	refuse(math.NaN(), false)
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scheme != "" {
		t.Fatalf("refused first shard adopted the collector to %q", stats.Scheme)
	}
	if n := st.Stats().RecordsAppended; n != 0 {
		t.Fatalf("refused first shard appended %d WAL records", n)
	}

	if _, err := client.SubmitAggregate(ctx, shards[0], pipeline); err != nil {
		t.Fatal(err)
	}
	before, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	blobBefore, err := client.FetchAggregateBlob(ctx)
	if err != nil {
		t.Fatal(err)
	}
	recordsBefore := st.Stats().RecordsAppended
	for _, v := range []float64{math.NaN(), -3, 0.5, math.Inf(1)} {
		refuse(v, false)
		refuse(v, true)
	}
	after, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Generation != before.Generation {
		t.Fatalf("generation moved %d → %d on refused shards", before.Generation, after.Generation)
	}
	blobAfter, err := client.FetchAggregateBlob(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blobAfter, blobBefore) {
		t.Fatal("refused shards changed the served aggregate")
	}
	if n := st.Stats().RecordsAppended; n != recordsBefore {
		t.Fatalf("refused shards appended WAL records: %d → %d", recordsBefore, n)
	}
	if _, _, err := client.Estimate(ctx); err != nil {
		t.Fatalf("estimate after refused shards: %v", err)
	}
}
