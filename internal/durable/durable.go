// Package durable is the crash-safe persistence layer under the
// collector tier: periodic atomic snapshots of an opaque state blob
// (the canonical DPA2 aggregate plus caller metadata and the ack log)
// with a CRC-framed append-only write-ahead log recording every
// accepted submission between snapshots.
//
// The contract the collector builds its exactly-once guarantee on:
//
//   - Append returns only after the record batch is fsync'd, so a
//     submission is acknowledged only once a crash cannot lose it.
//   - WriteSnapshot is atomic (temp file, fsync, rename, directory
//     fsync): a crash at any point leaves either the previous snapshot
//     or the new one, never a torn mixture.
//   - Every record carries a monotonically increasing sequence number
//     and the snapshot records the sequence it covers, so a crash
//     between the snapshot rename and the WAL reset replays nothing
//     twice — stale records are recognised by sequence and skipped.
//   - Recovery tolerates exactly one kind of damage: an incomplete
//     final WAL write (the torn tail a kill -9 mid-append leaves). Any
//     other inconsistency — a CRC failure followed by intact records, a
//     sequence gap, a corrupt snapshot — refuses loudly rather than
//     silently serving partial state.
//
// The engine is deliberately generic: it stores byte payloads and never
// interprets them, so the collector keeps ownership of its own wire
// formats (Pipeline JSON, DPA2 blobs, ack envelopes) and the package
// has no dependency on the service layers above it.
package durable

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// On-disk layout inside the data directory.
const (
	// WALFile is the append-only record log.
	WALFile = "wal.log"
	// SnapshotFile is the last complete snapshot; it only ever appears
	// by atomic rename of SnapshotTmpFile.
	SnapshotFile = "snapshot.dam"
	// SnapshotTmpFile is the in-progress snapshot; one left behind by a
	// crash before the rename is discarded on Open.
	SnapshotTmpFile = SnapshotFile + ".tmp"
)

// Record types. The engine persists the type byte verbatim; the
// collector defines what each means.
const (
	// RecordPipeline carries the pinned pipeline metadata (JSON in Meta)
	// so a restarted process can rebuild its mechanism before replaying
	// submissions.
	RecordPipeline byte = 1
	// RecordSubmission carries one accepted shard: the submission's
	// idempotency ID, the ack envelope (Meta) and the shard blob (Blob).
	RecordSubmission byte = 2
)

// Record is one WAL entry. Seq is assigned by Append and reported back
// on recovery; callers set Type, ID, Meta and Blob.
type Record struct {
	Seq  uint64
	Type byte
	ID   string
	Meta []byte
	Blob []byte
}

// AckEntry is one remembered ack in a snapshot's idempotency log,
// oldest first — the order the collector's FIFO eviction needs. The
// collector's in-memory log holds the same entries, so a snapshot
// writes them without conversion.
type AckEntry struct {
	ID  string
	Ack []byte
}

// Snapshot is the full collector state at a sequence point.
type Snapshot struct {
	// Seq is the last WAL sequence the snapshot covers: recovery replays
	// only records with a higher sequence.
	Seq uint64
	// TakenAt is when the snapshot was written (operator surface only;
	// recovery does not depend on it).
	TakenAt time.Time
	// Meta is caller-defined metadata (the collector stores pipeline +
	// counters as JSON).
	Meta []byte
	// State is the caller's opaque state blob (the canonical DPA2
	// aggregate).
	State []byte
	// Acks is the idempotency log, oldest first.
	Acks []AckEntry
}

// Recovery is what Open found on disk, ready to replay.
type Recovery struct {
	// Snapshot is the last complete snapshot, nil when none exists.
	Snapshot *Snapshot
	// Records are the WAL records not covered by the snapshot, in append
	// order.
	Records []Record
	// TornTailBytes counts bytes of an incomplete final WAL write that
	// were discarded — the residue of a crash mid-append. The records
	// they belonged to were never acknowledged, so discarding loses
	// nothing a client was promised.
	TornTailBytes int64
}

// Hooks are fault-injection points for crash-schedule tests: a non-nil
// hook returning an error aborts the operation at that point, exactly
// as a crash there would. Production code leaves them nil.
type Hooks struct {
	// BeforeSnapshotRename fires after the temp snapshot is written and
	// fsync'd, before the atomic rename.
	BeforeSnapshotRename func() error
	// AfterSnapshotRename fires after the rename and directory fsync,
	// before the WAL is reset.
	AfterSnapshotRename func() error
}

// Stats is the operator surface of one store, served through /v1/stats.
type Stats struct {
	// SnapshotSeq is the sequence covered by the snapshot on disk
	// (0 = none yet); WALSeq is the last appended sequence.
	SnapshotSeq uint64 `json:"snapshotSeq"`
	WALSeq      uint64 `json:"walSeq"`
	// RecordsSinceSnapshot is the replay cost of a crash right now.
	RecordsSinceSnapshot uint64 `json:"recordsSinceSnapshot"`
	// RecordsAppended / SnapshotsWritten count this process's writes.
	RecordsAppended  uint64 `json:"recordsAppended"`
	SnapshotsWritten uint64 `json:"snapshotsWritten"`
	// WALFsyncs counts fsyncs issued on the WAL file by this process —
	// one per Append batch plus one per post-snapshot reset — the
	// durability cost an operator trades against the snapshot cadence.
	// WALBytesWritten is the total bytes this process appended to the
	// WAL, headers included (unlike WALBytes it never shrinks on reset).
	WALFsyncs       uint64 `json:"walFsyncs"`
	WALBytesWritten uint64 `json:"walBytesWritten"`
	// RecordsReplayed is how many WAL records the startup recovery
	// replayed; TornTailBytes the discarded incomplete final write.
	RecordsReplayed int   `json:"recordsReplayed"`
	TornTailBytes   int64 `json:"tornTailBytes,omitempty"`
	// RecoveryMillis is the wall time of the startup recovery, including
	// the caller's replay once it reports it.
	RecoveryMillis int64 `json:"recoveryMillis"`
	// SnapshotAgeMillis is the age of the snapshot on disk at the time
	// of the stats call (-1 = no snapshot yet).
	SnapshotAgeMillis int64 `json:"snapshotAgeMillis"`
	// WALBytes is the current WAL file size.
	WALBytes int64 `json:"walBytes"`
	// LastError records the most recent append or snapshot failure.
	LastError string `json:"lastError,omitempty"`
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Store is one open data directory. All methods are safe for concurrent
// use; Append and WriteSnapshot serialise internally.
type Store struct {
	// Hooks inject crash points for fault tests; set them between Open
	// and first use.
	Hooks Hooks

	dir string

	mu          sync.Mutex
	wal         *os.File
	seq         uint64 // last assigned sequence
	snapSeq     uint64 // sequence covered by the snapshot on disk
	snapTakenAt time.Time
	walBytes    int64
	stats       Stats
	recovery    *Recovery
	recoverT0   time.Time
}

// Open opens (creating if needed) a data directory, validates what it
// holds, truncates a torn WAL tail, and stages the recovered state for
// TakeRecovery. It refuses — rather than silently dropping state — on
// any damage other than an incomplete final WAL write.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	s := &Store{dir: dir, recoverT0: time.Now()}

	// A temp snapshot is a crash before the rename: the WAL still covers
	// everything it would have, so it is pure garbage.
	if err := os.Remove(filepath.Join(dir, SnapshotTmpFile)); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("durable: removing stale snapshot temp: %w", err)
	}

	rec := &Recovery{}
	snapData, err := os.ReadFile(filepath.Join(dir, SnapshotFile))
	switch {
	case err == nil:
		snap, derr := decodeSnapshot(snapData)
		if derr != nil {
			return nil, fmt.Errorf("durable: snapshot %s: %w", SnapshotFile, derr)
		}
		rec.Snapshot = snap
		s.snapSeq = snap.Seq
		s.snapTakenAt = snap.TakenAt
		s.seq = snap.Seq
	case os.IsNotExist(err):
	default:
		return nil, fmt.Errorf("durable: %w", err)
	}

	walPath := filepath.Join(dir, WALFile)
	walData, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("durable: %w", err)
	}
	recs, validEnd, perr := parseWAL(walData)
	if perr != nil {
		return nil, fmt.Errorf("durable: WAL %s: %w", WALFile, perr)
	}
	rec.TornTailBytes = int64(len(walData)) - validEnd

	// Relate the WAL to the snapshot: records at or below the snapshot
	// sequence are from a crash between the snapshot rename and the WAL
	// reset — covered, skip them. Anything above must continue exactly
	// at snapSeq+1 or state is missing.
	for _, r := range recs {
		if r.Seq <= s.snapSeq {
			continue
		}
		if r.Seq != s.seq+1 {
			return nil, fmt.Errorf("durable: WAL record sequence %d does not follow %d: records are missing", r.Seq, s.seq)
		}
		rec.Records = append(rec.Records, r)
		s.seq = r.Seq
	}

	// Physically drop the torn tail before appending anything, so new
	// records never land after garbage bytes.
	if rec.TornTailBytes > 0 {
		if err := os.Truncate(walPath, validEnd); err != nil {
			return nil, fmt.Errorf("durable: truncating torn WAL tail: %w", err)
		}
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	if validEnd == 0 {
		if _, err := f.Write(walMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("durable: writing WAL header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("durable: %w", err)
		}
		validEnd = int64(len(walMagic))
		s.stats.WALFsyncs++
		s.stats.WALBytesWritten += uint64(len(walMagic))
	}
	s.wal = f
	s.walBytes = validEnd
	s.stats.RecordsReplayed = len(rec.Records)
	s.stats.TornTailBytes = rec.TornTailBytes
	s.recovery = rec
	return s, nil
}

// TakeRecovery returns the state Open found, once; later calls return
// nil. The caller replays it and then calls NoteRecovered so the replay
// duration lands in the stats.
func (s *Store) TakeRecovery() *Recovery {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.recovery
	s.recovery = nil
	return rec
}

// NoteRecovered records the end of the caller's replay, closing the
// recovery-duration measurement started at Open.
func (s *Store) NoteRecovered() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.RecoveryMillis = time.Since(s.recoverT0).Milliseconds()
}

// AppendInfo describes one completed Append batch — the span hook the
// tracing layer hangs WAL attributes off (bytes framed, records
// written, time spent inside the fsync).
type AppendInfo struct {
	// Records is the number of records framed into the batch.
	Records int
	// Bytes is the framed batch size written to the WAL.
	Bytes int64
	// Fsync is the wall-clock duration of the batch's fsync alone.
	Fsync time.Duration
}

// Append assigns sequence numbers to the records, writes them as one
// CRC-framed batch, and fsyncs before returning — the caller may
// acknowledge the submission only after Append returns nil. On error
// the on-disk state is at worst a torn tail, which the next Open
// discards. The returned AppendInfo sizes the batch and its fsync for
// the caller's tracing span; it is zero on error.
func (s *Store) Append(recs ...Record) (AppendInfo, error) {
	if len(recs) == 0 {
		return AppendInfo{}, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf []byte
	for i := range recs {
		recs[i].Seq = s.seq + uint64(i) + 1
		buf = appendFramedRecord(buf, &recs[i])
	}
	if _, err := s.wal.Write(buf); err != nil {
		s.stats.LastError = err.Error()
		return AppendInfo{}, fmt.Errorf("durable: WAL append: %w", err)
	}
	syncT0 := time.Now()
	if err := s.wal.Sync(); err != nil {
		s.stats.LastError = err.Error()
		return AppendInfo{}, fmt.Errorf("durable: WAL fsync: %w", err)
	}
	syncD := time.Since(syncT0)
	s.seq += uint64(len(recs))
	s.walBytes += int64(len(buf))
	s.stats.RecordsAppended += uint64(len(recs))
	s.stats.WALFsyncs++
	s.stats.WALBytesWritten += uint64(len(buf))
	return AppendInfo{Records: len(recs), Bytes: int64(len(buf)), Fsync: syncD}, nil
}

// RecordsSinceSnapshot reports the replay cost of a crash right now —
// the collector's snapshot-cadence trigger.
func (s *Store) RecordsSinceSnapshot() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq - s.snapSeq
}

// WriteSnapshot atomically persists a snapshot of the caller's state at
// the current sequence and resets the WAL. A crash at any point leaves
// a directory Open recovers to the identical state: before the rename
// the old snapshot + full WAL win; after it, stale WAL records are
// skipped by sequence.
func (s *Store) WriteSnapshot(meta, state []byte, acks []AckEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := &Snapshot{Seq: s.seq, TakenAt: time.Now(), Meta: meta, State: state, Acks: acks}

	tmp := filepath.Join(s.dir, SnapshotTmpFile)
	final := filepath.Join(s.dir, SnapshotFile)
	if err := s.writeSnapshotFile(tmp, snap); err != nil {
		s.stats.LastError = err.Error()
		return err
	}
	if h := s.Hooks.BeforeSnapshotRename; h != nil {
		if err := h(); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, final); err != nil {
		s.stats.LastError = err.Error()
		return fmt.Errorf("durable: snapshot rename: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		s.stats.LastError = err.Error()
		return err
	}
	// The snapshot is durable from here on: even if the WAL reset below
	// does not happen, recovery skips the now-covered records.
	s.snapSeq = snap.Seq
	s.snapTakenAt = snap.TakenAt
	s.stats.SnapshotsWritten++
	if h := s.Hooks.AfterSnapshotRename; h != nil {
		if err := h(); err != nil {
			return err
		}
	}
	if err := s.resetWALLocked(); err != nil {
		s.stats.LastError = err.Error()
		return err
	}
	return nil
}

func (s *Store) writeSnapshotFile(path string, snap *Snapshot) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := writeSnapshot(f, snap); err != nil {
		f.Close()
		return fmt.Errorf("durable: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: snapshot fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return nil
}

// resetWALLocked empties the log after a successful snapshot. The open
// O_APPEND handle keeps appending at the (new) end after the truncate.
func (s *Store) resetWALLocked() error {
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("durable: WAL reset: %w", err)
	}
	if _, err := s.wal.Write(walMagic); err != nil {
		return fmt.Errorf("durable: WAL header: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("durable: WAL fsync: %w", err)
	}
	s.walBytes = int64(len(walMagic))
	s.stats.WALFsyncs++
	s.stats.WALBytesWritten += uint64(len(walMagic))
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durable: directory fsync: %w", err)
	}
	return nil
}

// Stats snapshots the operator counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.SnapshotSeq = s.snapSeq
	st.WALSeq = s.seq
	st.RecordsSinceSnapshot = s.seq - s.snapSeq
	st.WALBytes = s.walBytes
	if s.snapTakenAt.IsZero() {
		st.SnapshotAgeMillis = -1
	} else {
		st.SnapshotAgeMillis = time.Since(s.snapTakenAt).Milliseconds()
	}
	return st
}

// Close closes the WAL handle. It does NOT write a snapshot — the
// collector flushes one first when shutting down gracefully.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

// RecordEnds returns the byte offset just past each complete CRC-valid
// record in the WAL at path — the crash-point enumeration fault tests
// truncate at. The first boundary (the file header) is included.
func RecordEnds(path string) ([]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	recs, _, err := parseWAL(data)
	if err != nil {
		return nil, err
	}
	ends := []int64{int64(len(walMagic))}
	off := int64(len(walMagic))
	for _, r := range recs {
		off += int64(framedRecordSize(&r))
		ends = append(ends, off)
	}
	return ends, nil
}
