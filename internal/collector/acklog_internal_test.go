package collector

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"testing"

	"dpspatial/internal/durable"
	"dpspatial/internal/grid"
	"dpspatial/internal/sam"
)

// TestAckEnvelopeMatchesStructEncoding pins the WAL envelope built
// around an ack's stored bytes to the envelope with the ack struct
// inside it, byte for byte — HTML characters and U+2028/U+2029 included,
// which json.Marshal escapes in both forms.
func TestAckEnvelopeMatchesStructEncoding(t *testing.T) {
	for _, resp := range []SubmitResponse{
		{Scheme: "DAM/d=15", Reports: 200, TotalReports: 1e6, Generation: 7, TraceID: "0af7651916cd43dd8448eb211c80319c"},
		{
			Scheme: "a<b>&c\u2028\u2029\u00e9", Reports: 0.1, TotalReports: 3.5e-9, Generation: 1 << 63,
			TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Member: "https://10.0.0.1:9311/x?a=<b>&c=d",
		},
		{},
	} {
		ack, err := json.Marshal(&resp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(&ackEnvelope{Kind: ShardReport.String(), Ack: ack})
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(struct {
			Kind string         `json:"kind"`
			Ack  SubmitResponse `json:"ack"`
		}{ShardReport.String(), resp})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("envelope:\n got %s\nwant %s", got, want)
		}
	}
}

// TestSnapshotAllocsIndependentOfAckCount pins the snapshot path to a
// constant number of allocations: the ack log hands its stored bytes to
// durable.WriteSnapshot, so 16,384 acks cost no more objects than
// 1,024, up to a small constant. Encoding or copying per ack would add
// thousands.
func TestSnapshotAllocsIndependentOfAckCount(t *testing.T) {
	dom, err := grid.NewDomain(0, 0, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		mech, err := sam.NewDAM(dom, 2)
		if err != nil {
			t.Fatal(err)
		}
		st, err := durable.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		pin := &Pipeline{Mech: "DAM", D: 6, Eps: 2, Scheme: mech.Scheme(), Shape: mech.ReportShape(), Domain: DomainSpec{Side: 1}}
		c, err := New(Config{Mechanism: mech, Pipeline: pin, Store: st, DisableTraces: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			ack, err := json.Marshal(&SubmitResponse{
				Scheme: mech.Scheme(), Reports: 200, TotalReports: float64(200 * (i + 1)),
				Generation: uint64(i + 1), TraceID: fmt.Sprintf("%032x", i),
			})
			if err != nil {
				t.Fatal(err)
			}
			c.acks.Put(fmt.Sprintf("sub-%08d", i), ack)
		}
		return testing.AllocsPerRun(3, func() {
			if err := c.Snapshot(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1024), allocs(16384)
	t.Logf("snapshot allocations: %.0f for 1,024 acks, %.0f for 16,384", small, large)
	// The slack absorbs run-to-run noise (the gap reached 6 under
	// -race -shuffle=on); one allocation per ack would add 15,360.
	if large > small+32 {
		t.Fatalf("snapshot of 16,384 acks made %.0f allocations, of 1,024 acks %.0f: per-ack work is back on the snapshot path", large, small)
	}
}

// TestRecoveryAllocsIndependentOfAckCount pins recovery of a snapshot's
// ack log to a number of allocations that hardly grows with the log:
// acks in json.Marshal's form are checked without decoding, and the
// index is sized once. collector.New alone is measured; durable.Open
// allocates each ID string. The recovered log must hold the snapshot's
// IDs, in order, with their bytes.
func TestRecoveryAllocsIndependentOfAckCount(t *testing.T) {
	dom, err := grid.NewDomain(0, 0, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	mech, err := sam.NewDAM(dom, 2)
	if err != nil {
		t.Fatal(err)
	}
	pin := &Pipeline{Mech: "DAM", D: 6, Eps: 2, Scheme: mech.Scheme(), Shape: mech.ReportShape(), Domain: DomainSpec{Side: 1}}
	state, err := mech.NewAggregate().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) uint64 {
		acks := make([]durable.AckEntry, n)
		for i := range acks {
			ack, err := json.Marshal(&SubmitResponse{
				Scheme: mech.Scheme(), Reports: 200, TotalReports: float64(200 * (i + 1)),
				Generation: uint64(i + 1), TraceID: fmt.Sprintf("%032x", i),
			})
			if err != nil {
				t.Fatal(err)
			}
			acks[i] = durable.AckEntry{ID: fmt.Sprintf("sub-%08d", i), Ack: ack}
		}
		meta, err := json.Marshal(&snapshotMeta{Scheme: mech.Scheme(), Pipeline: pin, Generation: uint64(n), AggregateShards: uint64(n)})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		st, err := durable.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WriteSnapshot(meta, state, acks); err != nil {
			t.Fatal(err)
		}
		st.Close()

		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		least := uint64(math.MaxUint64)
		for run := 0; run < 3; run++ {
			st, err := durable.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c, err := New(Config{Mechanism: mech, Pipeline: pin, Store: st, DisableTraces: true})
			runtime.ReadMemStats(&after)
			st.Close()
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.Mallocs-before.Mallocs)
			got := c.acks.Entries()
			if len(got) != n {
				t.Fatalf("recovered %d acks, want %d", len(got), n)
			}
			for i, e := range got {
				if e.ID != acks[i].ID || !bytes.Equal(e.Ack, acks[i].Ack) {
					t.Fatalf("recovered ack %d = %s %s, want %s %s", i, e.ID, e.Ack, acks[i].ID, acks[i].Ack)
				}
			}
		}
		return least
	}
	small, large := allocs(1024), allocs(16384)
	t.Logf("collector.New allocations: %d over 1,024 acks, %d over 16,384", small, large)
	// The index's tables add a few allocations per thousand acks; one
	// allocation per ack would add 15,360.
	if large > small+128 {
		t.Fatalf("collector.New made %d allocations over 16,384 acks, %d over 1,024: per-ack work is back in recovery", large, small)
	}
}
