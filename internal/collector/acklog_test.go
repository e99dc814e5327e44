package collector_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"dpspatial/internal/collector"
	"dpspatial/internal/durable"
)

// TestAckLogWindow pins the idempotency log's shape on a small window:
// FIFO eviction past the cap, Entries oldest first, and Get returning
// the stored fields with Duplicate set.
func TestAckLogWindow(t *testing.T) {
	l := collector.NewAckLog(3)
	want := map[string]collector.SubmitResponse{}
	for i, id := range []string{"a", "b", "c", "d", "e"} {
		resp := collector.SubmitResponse{
			Scheme: "DAM/test", Reports: float64(i + 1), TotalReports: float64(10 * (i + 1)),
			Generation: uint64(i + 1), TraceID: fmt.Sprintf("%032x", i), Member: "http://m<&>",
		}
		ack, err := json.Marshal(&resp)
		if err != nil {
			t.Fatal(err)
		}
		l.Put(id, ack)
		want[id] = resp
	}
	l.Put("", []byte(`{}`)) // an ID-less submission is never remembered

	ids := func() []string {
		var out []string
		for _, e := range l.Entries() {
			out = append(out, e.ID)
		}
		return out
	}
	if got := ids(); !reflect.DeepEqual(got, []string{"c", "d", "e"}) {
		t.Fatalf("entries %v, want the newest three oldest first", got)
	}
	for _, id := range []string{"a", "b", ""} {
		if _, ok := l.Get(id); ok {
			t.Fatalf("Get(%q) found an ack the window evicted or never held", id)
		}
	}
	for _, id := range []string{"c", "d", "e"} {
		got, ok := l.Get(id)
		w := want[id]
		w.Duplicate = true
		if !ok || got != w {
			t.Fatalf("Get(%q) = %+v, %v; want %+v", id, got, ok, w)
		}
	}

	// Re-putting a held ID replaces its ack in place: the FIFO order,
	// and so the next eviction, does not move.
	l.Put("c", []byte(`{"scheme":"replaced","generation":9}`))
	if got, _ := l.Get("c"); got.Scheme != "replaced" || got.Generation != 9 {
		t.Fatalf("re-put ack not stored: %+v", got)
	}
	l.Put("f", []byte(`{}`))
	if got := ids(); !reflect.DeepEqual(got, []string{"d", "e", "f"}) {
		t.Fatalf("entries after re-put and one more put %v, want [d e f]", got)
	}
}

// TestDurableAckBytesMatchStructEncoding pins the stored ack bytes to
// the encoding of the ack struct — json.Marshal of SubmitResponse,
// inside the {"kind","ack"} envelope in the WAL and bare in a snapshot
// — across a WAL-only crash, a restart that recovers from the WAL, a
// snapshot, and a restart from that snapshot followed by a second one,
// which must also keep the acks in submission order.
func TestDurableAckBytesMatchStructEncoding(t *testing.T) {
	const d, eps = 6, 2.0
	mech := newDAM(t, d, eps)
	pip := durPipeline(mech, d, eps)
	shards := accumulateShards(t, mech, 6, 21)
	blobs, ids := marshalShards(t, shards, "bytes")
	ctx := context.Background()
	dir := t.TempDir()

	var acks []collector.SubmitResponse
	submit := func(client *collector.Client, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			resp, err := client.SubmitAggregateBlobWithID(ctx, blobs[i], pip, ids[i])
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.TraceID) != 32 {
				t.Fatalf("ack %d trace ID %q: the pin needs a traced ack", i, resp.TraceID)
			}
			acks = append(acks, *resp)
		}
	}
	recovered := func() *durable.Recovery {
		t.Helper()
		st, err := durable.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		return st.TakeRecovery()
	}
	checkSnapshot := func(n int) {
		t.Helper()
		snap := recovered().Snapshot
		if snap == nil || len(snap.Acks) != n {
			t.Fatalf("no snapshot of %d acks", n)
		}
		for i, e := range snap.Acks {
			want, err := json.Marshal(&acks[i])
			if err != nil {
				t.Fatal(err)
			}
			if e.ID != ids[i] || !bytes.Equal(e.Ack, want) {
				t.Fatalf("snapshot ack %d = %s %s, want %s %s", i, e.ID, e.Ack, ids[i], want)
			}
		}
	}

	// First life: three submissions, then a crash — the WAL alone holds
	// them, each ack inside its envelope.
	client, _, first := startDurable(t, dir, collector.Config{Build: durBuild(t), SnapshotEvery: -1})
	submit(client, 0, 3)
	first.Close()
	var subs []durable.Record
	for _, r := range recovered().Records {
		if r.Type == durable.RecordSubmission {
			subs = append(subs, r)
		}
	}
	if len(subs) != 3 {
		t.Fatalf("WAL holds %d submissions, want 3", len(subs))
	}
	for i, r := range subs {
		if want := ackEnvelopeJSON(t, "aggregate", acks[i]); !bytes.Equal(r.Meta, want) {
			t.Fatalf("WAL envelope %d:\n got %s\nwant %s", i, r.Meta, want)
		}
	}

	// Second life recovers from the WAL; its graceful close writes the
	// recovered acks and two new ones into a snapshot.
	client, c, st := startDurable(t, dir, collector.Config{Build: durBuild(t), SnapshotEvery: -1})
	submit(client, 3, 5)
	c.Close()
	st.Close()
	checkSnapshot(5)

	// Third life recovers from that snapshot and writes a second one.
	client, c, st = startDurable(t, dir, collector.Config{Build: durBuild(t), SnapshotEvery: -1})
	submit(client, 5, 6)
	c.Close()
	st.Close()
	checkSnapshot(6)
}
