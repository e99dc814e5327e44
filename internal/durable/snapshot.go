package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"time"
)

// A snapshot file is one self-checking blob:
//
//	magic(8) | uvarint seq | takenAt unixnano (8 LE) |
//	uvarint len(meta) meta | uvarint len(state) state |
//	uvarint numAcks { uvarint len(id) id | uvarint len(ack) ack }* |
//	uint32 LE CRC32-C over everything before it
//
// It only ever reaches SnapshotFile by atomic rename of a fully written
// and fsync'd temp file, so a snapshot that exists is complete — the
// trailing CRC guards against bit rot, not torn writes, and any
// mismatch refuses recovery.
var snapshotMagic = []byte("DPSNAP01")

// snapshotBufSize is the one buffer a snapshot streams through. A full
// ack log makes the snapshot about 8–11 MB; built whole, each snapshot
// would allocate and copy all of it, and that garbage sets the
// collector's heap goal.
const snapshotBufSize = 64 << 10

// writeSnapshot streams snap's encoding to w through one buffer of
// snapshotBufSize bytes, adding each chunk it flushes to the CRC-32C, so
// it never holds a copy of the ack log. The first error w returns is
// the one it returns.
func writeSnapshot(w io.Writer, snap *Snapshot) error {
	crc := crc32.New(crcTable)
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), snapshotBufSize)
	// bufio.Writer keeps its first error and refuses every later write,
	// so only Flush needs checking.
	var num [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) { bw.Write(binary.AppendUvarint(num[:0], v)) }
	bw.Write(snapshotMagic)
	putUvarint(snap.Seq)
	bw.Write(binary.LittleEndian.AppendUint64(num[:0], uint64(snap.TakenAt.UnixNano())))
	putUvarint(uint64(len(snap.Meta)))
	bw.Write(snap.Meta)
	putUvarint(uint64(len(snap.State)))
	bw.Write(snap.State)
	putUvarint(uint64(len(snap.Acks)))
	for _, e := range snap.Acks {
		putUvarint(uint64(len(e.ID)))
		bw.WriteString(e.ID)
		putUvarint(uint64(len(e.Ack)))
		bw.Write(e.Ack)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(num[:0], crc.Sum32()))
	return err
}

func decodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapshotMagic)+4 {
		return nil, fmt.Errorf("file of %d bytes is too short for a snapshot", len(data))
	}
	if string(data[:len(snapshotMagic)]) != string(snapshotMagic) {
		return nil, fmt.Errorf("bad snapshot magic %q", data[:len(snapshotMagic)])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("snapshot fails its CRC: refusing to recover from corrupt state")
	}
	rest := body[len(snapshotMagic):]
	snap := &Snapshot{}
	seq, used := binary.Uvarint(rest)
	if used <= 0 {
		return nil, fmt.Errorf("truncated snapshot sequence")
	}
	snap.Seq = seq
	rest = rest[used:]
	if len(rest) < 8 {
		return nil, fmt.Errorf("truncated snapshot timestamp")
	}
	snap.TakenAt = time.Unix(0, int64(binary.LittleEndian.Uint64(rest[:8])))
	rest = rest[8:]
	var err error
	if snap.Meta, rest, err = readChunk(rest, "snapshot meta"); err != nil {
		return nil, err
	}
	if snap.State, rest, err = readChunk(rest, "snapshot state"); err != nil {
		return nil, err
	}
	numAcks, used := binary.Uvarint(rest)
	if used <= 0 || numAcks > uint64(len(rest)) {
		return nil, fmt.Errorf("truncated snapshot ack count")
	}
	rest = rest[used:]
	snap.Acks = make([]AckEntry, 0, numAcks)
	for i := uint64(0); i < numAcks; i++ {
		var id, ack []byte
		if id, rest, err = readChunk(rest, "ack id"); err != nil {
			return nil, err
		}
		if ack, rest, err = readChunk(rest, "ack body"); err != nil {
			return nil, err
		}
		snap.Acks = append(snap.Acks, AckEntry{ID: string(id), Ack: ack})
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes in snapshot", len(rest))
	}
	return snap, nil
}
