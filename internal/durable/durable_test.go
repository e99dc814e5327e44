package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// --- golden encodings ---
//
// The on-disk formats are a compatibility surface: a collector restarted
// from a newer binary must replay directories the older one wrote. These
// bytes must never change without a new magic.

func TestGoldenRecordEncoding(t *testing.T) {
	rec := Record{Seq: 7, Type: RecordSubmission, ID: "sub-1", Meta: []byte(`{"k":1}`), Blob: []byte{0xde, 0xad}}
	const want = "1a0000003474fcca020700000000000000057375622d31077b226b223a317d02dead"
	if got := hex.EncodeToString(appendFramedRecord(nil, &rec)); got != want {
		t.Fatalf("framed record encoding changed:\n got %s\nwant %s", got, want)
	}
	if n := framedRecordSize(&rec); n != len(want)/2 {
		t.Fatalf("framedRecordSize = %d, want %d", n, len(want)/2)
	}
}

func TestGoldenSnapshotEncoding(t *testing.T) {
	snap := &Snapshot{
		Seq:     3,
		TakenAt: time.Unix(0, 1700000000000000000),
		Meta:    []byte(`{"m":2}`),
		State:   []byte{0xbe, 0xef},
		Acks:    []AckEntry{{ID: "a", Ack: []byte(`{"ok":true}`)}},
	}
	const want = "4450534e415030310300002a36fe9c9717077b226d223a327d02beef0101610b7b226f6b223a747275657d8a6aa849"
	if got := hex.EncodeToString(streamSnapshot(t, snap)); got != want {
		t.Fatalf("snapshot encoding changed:\n got %s\nwant %s", got, want)
	}
	back, err := decodeSnapshot(streamSnapshot(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	if back.Seq != snap.Seq || !back.TakenAt.Equal(snap.TakenAt) ||
		!bytes.Equal(back.Meta, snap.Meta) || !bytes.Equal(back.State, snap.State) ||
		len(back.Acks) != 1 || back.Acks[0].ID != "a" || !bytes.Equal(back.Acks[0].Ack, snap.Acks[0].Ack) {
		t.Fatalf("snapshot round trip mismatch: %+v", back)
	}
}

// FuzzDecodeSnapshot feeds decodeSnapshot arbitrary bytes with the
// trailing CRC-32C re-stamped, so mutations reach the field decoder
// instead of stopping at the checksum. It must never panic, never size
// the ack log past the input, and whatever it accepts must re-encode to
// bytes that decode to the same fields.
func FuzzDecodeSnapshot(f *testing.F) {
	// The bytes TestGoldenSnapshotEncoding pins.
	golden, err := hex.DecodeString("4450534e415030310300002a36fe9c9717077b226d223a327d02beef0101610b7b226f6b223a747275657d8a6aa849")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(streamSnapshot(f, &Snapshot{Seq: 1 << 40, TakenAt: time.Unix(0, 42), Meta: []byte(`{}`), State: []byte{1, 2, 3}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data)
		if n := len(data); n >= 4 {
			binary.LittleEndian.PutUint32(data[n-4:], crc32.Checksum(data[:n-4], crcTable))
		}
		snap, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		if cap(snap.Acks) > len(data) {
			t.Fatalf("%d-byte input sized an ack log of %d", len(data), cap(snap.Acks))
		}
		back, err := decodeSnapshot(streamSnapshot(t, snap))
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		same := back.Seq == snap.Seq && back.TakenAt.Equal(snap.TakenAt) &&
			bytes.Equal(back.Meta, snap.Meta) && bytes.Equal(back.State, snap.State) &&
			len(back.Acks) == len(snap.Acks)
		for i := 0; same && i < len(snap.Acks); i++ {
			same = back.Acks[i].ID == snap.Acks[i].ID && bytes.Equal(back.Acks[i].Ack, snap.Acks[i].Ack)
		}
		if !same {
			t.Fatalf("re-encoded snapshot decodes to different fields:\n got %+v\nwant %+v", back, snap)
		}
	})
}

// streamSnapshot encodes snap through writeSnapshot, the encoder
// WriteSnapshot streams a file through.
func streamSnapshot(tb testing.TB, snap *Snapshot) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := writeSnapshot(&buf, snap); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// referenceEncodeSnapshot is the encoder that built each snapshot whole
// in one presized buffer before snapshots were streamed, kept verbatim:
// writeSnapshot must produce its bytes exactly.
func referenceEncodeSnapshot(snap *Snapshot) []byte {
	size := len(snapshotMagic) + uvarintLen(snap.Seq) + 8 +
		uvarintLen(uint64(len(snap.Meta))) + len(snap.Meta) +
		uvarintLen(uint64(len(snap.State))) + len(snap.State) +
		uvarintLen(uint64(len(snap.Acks))) + 4
	for _, e := range snap.Acks {
		size += uvarintLen(uint64(len(e.ID))) + len(e.ID) + uvarintLen(uint64(len(e.Ack))) + len(e.Ack)
	}
	out := make([]byte, 0, size)
	out = append(out, snapshotMagic...)
	out = binary.AppendUvarint(out, snap.Seq)
	out = binary.LittleEndian.AppendUint64(out, uint64(snap.TakenAt.UnixNano()))
	out = binary.AppendUvarint(out, uint64(len(snap.Meta)))
	out = append(out, snap.Meta...)
	out = binary.AppendUvarint(out, uint64(len(snap.State)))
	out = append(out, snap.State...)
	out = binary.AppendUvarint(out, uint64(len(snap.Acks)))
	for _, e := range snap.Acks {
		out = binary.AppendUvarint(out, uint64(len(e.ID)))
		out = append(out, e.ID...)
		out = binary.AppendUvarint(out, uint64(len(e.Ack)))
		out = append(out, e.Ack...)
	}
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// filler returns n bytes of a pattern that depends on seed.
func filler(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// ingestAcks is an ack log of n entries shaped like a collector's
// untraced acks: 32-byte submission IDs and 90-odd bytes of ack JSON.
func ingestAcks(n int) []AckEntry {
	acks := make([]AckEntry, n)
	for i := range acks {
		acks[i] = AckEntry{
			ID:  fmt.Sprintf("fix-%012x-%015d", 0x5eed, i),
			Ack: []byte(fmt.Sprintf(`{"scheme":"sam/DAM d=15 eps=3.5 bhat=4","reports":200,"totalReports":%d,"generation":%d}`, 200*(i+1), i+1)),
		}
	}
	return acks
}

// TestSnapshotStreamMatchesReference requires the streamed encoding to
// equal the whole-buffer encoder's byte for byte wherever the stream's
// buffer boundaries can fall: fields larger than the buffer, an ack
// larger than it, acks across its boundaries, and a full ack log.
func TestSnapshotStreamMatchesReference(t *testing.T) {
	at := time.Unix(0, 1700000000000000000)
	straddling := make([]AckEntry, 3000)
	for i := range straddling {
		straddling[i] = AckEntry{ID: string(filler(1+i%150, byte(i))), Ack: filler(i*37%600, byte(i+1))}
	}
	cases := []struct {
		name string
		snap *Snapshot
	}{
		{"no acks", &Snapshot{Seq: 9, TakenAt: at, Meta: []byte(`{"m":1}`), State: []byte{1, 2}}},
		{"meta and state larger than the buffer", &Snapshot{
			Seq: 1 << 40, TakenAt: at, Meta: filler(snapshotBufSize+17, 1), State: filler(3*snapshotBufSize+5, 2), Acks: ingestAcks(3),
		}},
		{"one ack larger than the buffer", &Snapshot{
			Seq: 2, TakenAt: at, Meta: []byte(`{}`), State: []byte{3},
			Acks: []AckEntry{{ID: "a", Ack: []byte(`{}`)}, {ID: "b", Ack: filler(2*snapshotBufSize+3, 3)}, {ID: string(filler(snapshotBufSize+1, 4)), Ack: []byte(`{}`)}},
		}},
		{"acks straddling buffer boundaries", &Snapshot{Seq: 3, TakenAt: at, Meta: []byte(`{}`), State: filler(1000, 5), Acks: straddling}},
		{"full ack log", &Snapshot{Seq: 14000, TakenAt: at, Meta: []byte(`{"m":2}`), State: filler(40000, 6), Acks: ingestAcks(65536)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got, want := streamSnapshot(t, c.snap), referenceEncodeSnapshot(c.snap); !bytes.Equal(got, want) {
				t.Fatalf("streamed %d bytes differ from the reference's %d", len(got), len(want))
			}
		})
	}
	// Walk the first buffer boundary through every byte of one ack: its
	// two-byte ID length, its ID, its two-byte ack length and its ack.
	one := []AckEntry{{ID: string(filler(130, 7)), Ack: filler(200, 8)}}
	for pad := 0; pad < 340; pad++ {
		snap := &Snapshot{Seq: 4, TakenAt: at, State: filler(snapshotBufSize-40+pad, 9), Acks: one}
		if got, want := streamSnapshot(t, snap), referenceEncodeSnapshot(snap); !bytes.Equal(got, want) {
			t.Fatalf("state of %d bytes: streamed %d bytes differ from the reference's %d", len(snap.State), len(got), len(want))
		}
	}
}

// failOnce accepts n bytes, fails the write that would pass them with
// err, and accepts every write after that: only a writer that keeps the
// first error can report it.
type failOnce struct {
	n   int
	err error // nil once returned
}

func (f *failOnce) Write(p []byte) (int, error) {
	if f.err == nil || len(p) <= f.n {
		f.n -= len(p)
		return len(p), nil
	}
	n, err := f.n, f.err
	f.err = nil
	return n, err
}

// TestWriteSnapshotReturnsWriterError: a writer that fails part way,
// in the header, in an ack or in the trailing CRC, gets its own error
// back, even when it accepts the writes after the failing one.
func TestWriteSnapshotReturnsWriterError(t *testing.T) {
	snap := &Snapshot{Seq: 5, TakenAt: time.Unix(0, 42), Meta: []byte(`{}`), State: []byte{1}, Acks: ingestAcks(4000)}
	size := len(referenceEncodeSnapshot(snap))
	boom := errors.New("disk full")
	for _, k := range []int{0, 5, size / 2, size - 4, size - 2} {
		if err := writeSnapshot(&failOnce{n: k, err: boom}, snap); !errors.Is(err, boom) {
			t.Errorf("writer failing after %d of %d bytes: got %v, want %v", k, size, err, boom)
		}
	}
}

// TestWriteSnapshotMemoryIndependentOfAckLog pins what one snapshot
// allocates: the ack log streams to the file through one fixed buffer,
// so a 65,536-ack log (about 8 MB on disk) costs well under 256 KiB.
// Built whole, the encoding alone allocated the file's size.
func TestWriteSnapshotMemoryIndependentOfAckLog(t *testing.T) {
	st := mustOpen(t, t.TempDir())
	defer st.Close()
	st.TakeRecovery()
	meta, state, acks := []byte(`{"m":3}`), filler(40000, 10), ingestAcks(65536)
	var werr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N && werr == nil; i++ {
			werr = st.WriteSnapshot(meta, state, acks)
		}
	})
	if werr != nil {
		t.Fatal(werr)
	}
	t.Logf("WriteSnapshot of %d acks: %d B allocated per call over %d calls", len(acks), res.AllocedBytesPerOp(), res.N)
	if got := res.AllocedBytesPerOp(); got > 256<<10 {
		t.Fatalf("WriteSnapshot of %d acks allocated %d B per call, want at most %d", len(acks), got, 256<<10)
	}
}

// FuzzParseWAL feeds parseWAL arbitrary logs, each raw and again with
// every complete frame's CRC-32C re-stamped, so mutations reach the
// record decoder and the sequence checks instead of stopping at the
// checksum. It must never panic, the end offset must lie within the
// input, a refused log returns no records, and an accepted log numbers
// its records consecutively from 1 or more, each re-framing and
// re-parsing to the same fields.
func FuzzParseWAL(f *testing.F) {
	// The frame TestGoldenRecordEncoding pins.
	golden, err := hex.DecodeString("1a0000003474fcca020700000000000000057375622d31077b226b223a317d02dead")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(bytes.Clone(walMagic), golden...))
	multi := bytes.Clone(walMagic)
	recs := testRecords(3)
	for i := range recs {
		recs[i].Seq = uint64(i + 1)
		multi = appendFramedRecord(multi, &recs[i])
	}
	f.Add(multi)
	f.Add(multi[:len(multi)-5])
	badCRC := bytes.Clone(multi)
	badCRC[len(multi)-framedRecordSize(&recs[2])+4] ^= 0xff
	f.Add(badCRC)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParsedWAL(t, data)
		checkParsedWAL(t, restampWALCRCs(data))
	})
}

// restampWALCRCs returns a copy of a log with the CRC-32C of every
// complete frame recomputed over its payload.
func restampWALCRCs(data []byte) []byte {
	data = bytes.Clone(data)
	off := len(walMagic)
	for off+frameOverhead <= len(data) {
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		end := off + frameOverhead + plen
		if plen > len(data) || end > len(data) {
			break
		}
		binary.LittleEndian.PutUint32(data[off+4:], crc32.Checksum(data[off+frameOverhead:end], crcTable))
		off = end
	}
	return data
}

// checkParsedWAL asserts FuzzParseWAL's properties on one input.
func checkParsedWAL(t *testing.T, data []byte) {
	recs, end, err := parseWAL(data)
	if end < 0 || end > int64(len(data)) {
		t.Fatalf("end offset %d outside a %d-byte log", end, len(data))
	}
	if err != nil {
		if len(recs) != 0 {
			t.Fatalf("refused log returned %d records: %v", len(recs), err)
		}
		return
	}
	for i, rec := range recs {
		if rec.Seq == 0 || i > 0 && rec.Seq != recs[i-1].Seq+1 {
			t.Fatalf("accepted record %d has sequence %d after %v", i, rec.Seq, recs[:i])
		}
		again, _, err := parseWAL(appendFramedRecord(bytes.Clone(walMagic), &rec))
		if err != nil || len(again) != 1 {
			t.Fatalf("accepted record %d does not re-parse: %v", i, err)
		}
		got := again[0]
		if got.Type != rec.Type || got.Seq != rec.Seq || got.ID != rec.ID ||
			!bytes.Equal(got.Meta, rec.Meta) || !bytes.Equal(got.Blob, rec.Blob) {
			t.Fatalf("record %d re-parses to different fields:\n got %+v\nwant %+v", i, got, rec)
		}
	}
}

// --- lifecycle round trips ---

func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Type: RecordSubmission,
			ID:   fmt.Sprintf("sub-%02d", i),
			Meta: []byte(fmt.Sprintf(`{"gen":%d}`, i+1)),
			Blob: bytes.Repeat([]byte{byte(i)}, 16+i),
		}
	}
	return recs
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	if rec := st.TakeRecovery(); rec == nil || rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovery = %+v", rec)
	}
	want := testRecords(5)
	for i := range want {
		info, err := st.Append(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if info.Records != 1 || info.Bytes <= 0 {
			t.Fatalf("AppendInfo = %+v, want 1 record with positive bytes", info)
		}
	}
	if info, err := st.Append(); err != nil || info != (AppendInfo{}) {
		t.Fatalf("empty Append = %+v, %v; want zero info, nil error", info, err)
	}
	// Simulate a crash: reopen without Close.
	st2 := mustOpen(t, dir)
	rec := st2.TakeRecovery()
	if rec.Snapshot != nil {
		t.Fatalf("unexpected snapshot: %+v", rec.Snapshot)
	}
	if rec.TornTailBytes != 0 {
		t.Fatalf("TornTailBytes = %d on a clean log", rec.TornTailBytes)
	}
	if len(rec.Records) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(rec.Records), len(want))
	}
	for i, r := range rec.Records {
		if r.Seq != uint64(i+1) || r.ID != want[i].ID ||
			!bytes.Equal(r.Meta, want[i].Meta) || !bytes.Equal(r.Blob, want[i].Blob) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
	if rec2 := st2.TakeRecovery(); rec2 != nil {
		t.Fatal("TakeRecovery must return nil the second time")
	}
	// Appends continue the sequence after recovery.
	if _, err := st2.Append(Record{Type: RecordPipeline, Meta: []byte("p")}); err != nil {
		t.Fatal(err)
	}
	st3 := mustOpen(t, dir)
	got := st3.TakeRecovery().Records
	if len(got) != 6 || got[5].Seq != 6 || got[5].Type != RecordPipeline {
		t.Fatalf("post-recovery append lost: %+v", got)
	}
}

func TestSnapshotRoundTripAndWALReset(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	st.TakeRecovery()
	for _, r := range testRecords(3) {
		if _, err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	acks := []AckEntry{{ID: "a", Ack: []byte("1")}, {ID: "b", Ack: []byte("2")}}
	if err := st.WriteSnapshot([]byte("meta"), []byte("state"), acks); err != nil {
		t.Fatal(err)
	}
	if n := st.RecordsSinceSnapshot(); n != 0 {
		t.Fatalf("RecordsSinceSnapshot = %d after snapshot", n)
	}
	// Two post-snapshot records must replay on top of the snapshot.
	if _, err := st.Append(Record{Type: RecordSubmission, ID: "after"}); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, dir)
	rec := st2.TakeRecovery()
	if rec.Snapshot == nil {
		t.Fatal("snapshot lost")
	}
	if rec.Snapshot.Seq != 3 || string(rec.Snapshot.Meta) != "meta" || string(rec.Snapshot.State) != "state" {
		t.Fatalf("snapshot mismatch: %+v", rec.Snapshot)
	}
	if len(rec.Snapshot.Acks) != 2 || rec.Snapshot.Acks[0].ID != "a" || rec.Snapshot.Acks[1].ID != "b" {
		t.Fatalf("acks mismatch: %+v", rec.Snapshot.Acks)
	}
	if len(rec.Records) != 1 || rec.Records[0].Seq != 4 || rec.Records[0].ID != "after" {
		t.Fatalf("post-snapshot records mismatch: %+v", rec.Records)
	}
}

func TestStatsSurface(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	st.TakeRecovery()
	if s := st.Stats(); s.SnapshotAgeMillis != -1 {
		t.Fatalf("SnapshotAgeMillis = %d before any snapshot", s.SnapshotAgeMillis)
	}
	if _, err := st.Append(testRecords(2)...); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.WALSeq != 2 || s.RecordsAppended != 2 || s.RecordsSinceSnapshot != 2 {
		t.Fatalf("stats after appends: %+v", s)
	}
	if s.WALBytes <= int64(len(walMagic)) {
		t.Fatalf("WALBytes = %d", s.WALBytes)
	}
	if err := st.WriteSnapshot(nil, []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	s = st.Stats()
	if s.SnapshotSeq != 2 || s.SnapshotsWritten != 1 || s.RecordsSinceSnapshot != 0 || s.SnapshotAgeMillis < 0 {
		t.Fatalf("stats after snapshot: %+v", s)
	}
}

// --- torn tails: the one tolerated damage ---

func TestTornTailToleratedAtEveryOffset(t *testing.T) {
	master := t.TempDir()
	st := mustOpen(t, master)
	st.TakeRecovery()
	recs := testRecords(3)
	for _, r := range recs {
		if _, err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(master, WALFile)
	ends, err := RecordEnds(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(ends) != 4 {
		t.Fatalf("RecordEnds = %v, want 4 boundaries", ends)
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation point inside the final record loses exactly that
	// unacknowledged record and keeps the two before it.
	for cut := ends[2]; cut < ends[3]; cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, WALFile), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st2 := mustOpen(t, dir)
		rec := st2.TakeRecovery()
		if len(rec.Records) != 2 {
			t.Fatalf("cut at %d: replayed %d records, want 2", cut, len(rec.Records))
		}
		if want := ends[3] - max(cut, ends[2]); cut > ends[2] && rec.TornTailBytes != cut-ends[2] {
			t.Fatalf("cut at %d: TornTailBytes = %d, want %d (full tail %d)", cut, rec.TornTailBytes, cut-ends[2], want)
		}
		// The torn bytes must be physically gone so new appends never
		// land after garbage.
		if fi, err := os.Stat(filepath.Join(dir, WALFile)); err != nil || fi.Size() != ends[2] {
			t.Fatalf("cut at %d: WAL size %d after open, want %d", cut, fi.Size(), ends[2])
		}
		if _, err := st2.Append(Record{Type: RecordSubmission, ID: "new"}); err != nil {
			t.Fatal(err)
		}
		st3 := mustOpen(t, dir)
		got := st3.TakeRecovery().Records
		if len(got) != 3 || got[2].ID != "new" || got[2].Seq != 3 {
			t.Fatalf("cut at %d: append after torn tail: %+v", cut, got)
		}
	}
}

func TestCorruptFinalRecordTreatedAsTorn(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	st.TakeRecovery()
	for _, r := range testRecords(2) {
		if _, err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	walPath := filepath.Join(dir, WALFile)
	data, _ := os.ReadFile(walPath)
	// Flip a byte in the FINAL record's payload: all bytes present, CRC
	// wrong — indistinguishable from a partially persisted last write.
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := mustOpen(t, dir)
	rec := st2.TakeRecovery()
	if len(rec.Records) != 1 || rec.TornTailBytes == 0 {
		t.Fatalf("corrupt final record: %d records, %d torn bytes", len(rec.Records), rec.TornTailBytes)
	}
}

// --- refusals: anything a torn final write cannot explain ---

func TestBadCRCMidLogRefuses(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	st.TakeRecovery()
	for _, r := range testRecords(3) {
		if _, err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	walPath := filepath.Join(dir, WALFile)
	ends, err := RecordEnds(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(walPath)
	data[ends[0]+frameOverhead+2] ^= 0xff // payload byte of record 1
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("mid-log corruption must refuse, got %v", err)
	}
}

func TestSequenceGapRefuses(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	st.TakeRecovery()
	for _, r := range testRecords(3) {
		if _, err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	walPath := filepath.Join(dir, WALFile)
	ends, err := RecordEnds(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(walPath)
	// Splice out the middle record: every frame stays CRC-valid but the
	// sequence jumps 1 → 3.
	spliced := append(append([]byte{}, data[:ends[1]]...), data[ends[2]:]...)
	if err := os.WriteFile(walPath, spliced, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("sequence gap must refuse, got %v", err)
	}
}

// TestSequenceZeroRefuses: Append numbers records from 1, so a CRC-valid
// log whose first record has sequence 0 was not written by Append.
// Recovery must refuse it, not skip the record as covered by a snapshot
// that does not exist.
func TestSequenceZeroRefuses(t *testing.T) {
	dir := t.TempDir()
	data := bytes.Clone(walMagic)
	data = appendFramedRecord(data, &Record{Seq: 0, Type: RecordSubmission, ID: "x"})
	data = appendFramedRecord(data, &Record{Seq: 1, Type: RecordSubmission, ID: "y"})
	if err := os.WriteFile(filepath.Join(dir, WALFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err == nil {
		rec := st.TakeRecovery()
		st.Close()
		t.Fatalf("a log starting at sequence 0 opened, recovering %d records", len(rec.Records))
	}
	if !strings.Contains(err.Error(), "sequence 0") {
		t.Fatalf("want a sequence-0 refusal, got %v", err)
	}
}

func TestCorruptSnapshotRefuses(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	st.TakeRecovery()
	if _, err := st.Append(testRecords(1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot([]byte("m"), []byte("s"), nil); err != nil {
		t.Fatal(err)
	}
	st.Close()
	path := filepath.Join(dir, SnapshotFile)
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt snapshot must refuse, got %v", err)
	}
}

func TestBadWALMagicRefuses(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, WALFile), []byte("NOTAWALF"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic must refuse, got %v", err)
	}
}

// --- crash windows around the snapshot rename ---

func TestCrashBeforeSnapshotRenameKeepsOldState(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	st.TakeRecovery()
	for _, r := range testRecords(2) {
		if _, err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	boom := fmt.Errorf("crash injected before rename")
	st.Hooks.BeforeSnapshotRename = func() error { return boom }
	if err := st.WriteSnapshot([]byte("m"), []byte("s"), nil); err != boom {
		t.Fatalf("WriteSnapshot error = %v, want injected crash", err)
	}
	// The abandoned temp file must not count as a snapshot.
	st2 := mustOpen(t, dir)
	rec := st2.TakeRecovery()
	if rec.Snapshot != nil {
		t.Fatalf("pre-rename crash surfaced a snapshot: %+v", rec.Snapshot)
	}
	if len(rec.Records) != 2 {
		t.Fatalf("replayed %d records, want 2", len(rec.Records))
	}
	if _, err := os.Stat(filepath.Join(dir, SnapshotTmpFile)); !os.IsNotExist(err) {
		t.Fatalf("stale snapshot temp survived Open: %v", err)
	}
}

func TestCrashAfterSnapshotRenameSkipsCoveredRecords(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	st.TakeRecovery()
	for _, r := range testRecords(2) {
		if _, err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	boom := fmt.Errorf("crash injected after rename")
	st.Hooks.AfterSnapshotRename = func() error { return boom }
	if err := st.WriteSnapshot([]byte("m"), []byte("s"), nil); err != boom {
		t.Fatalf("WriteSnapshot error = %v, want injected crash", err)
	}
	// The snapshot is durable but the WAL was never reset: recovery must
	// recognise the covered records by sequence and replay nothing.
	st2 := mustOpen(t, dir)
	rec := st2.TakeRecovery()
	if rec.Snapshot == nil || rec.Snapshot.Seq != 2 {
		t.Fatalf("post-rename crash lost the snapshot: %+v", rec.Snapshot)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("covered records replayed twice: %+v", rec.Records)
	}
	// New appends continue above the snapshot sequence.
	if _, err := st2.Append(Record{Type: RecordSubmission, ID: "post"}); err != nil {
		t.Fatal(err)
	}
	st3 := mustOpen(t, dir)
	rec3 := st3.TakeRecovery()
	if len(rec3.Records) != 1 || rec3.Records[0].Seq != 3 {
		t.Fatalf("append after covered WAL: %+v", rec3.Records)
	}
}
