package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

// encodeSnapshot sizes its buffer once: a full ack log makes the
// snapshot about 11 MB, and growing that by append copies it over and
// over.
func encodeSnapshot(snap *Snapshot) []byte {
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
