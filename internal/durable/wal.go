package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// The WAL is a magic header followed by framed records:
//
//	[uint32 LE payload length][uint32 LE CRC32-C of payload][payload]
//
// with each payload:
//
//	type(1) | seq(8 LE) | uvarint len(id) id | uvarint len(meta) meta |
//	uvarint len(blob) blob
//
// Appends are single write(2) calls followed by fsync, so a crash can
// only leave an incomplete suffix — which parseWAL discards as the torn
// tail. A CRC failure on anything OTHER than the final record cannot be
// a torn write and refuses recovery.
var walMagic = []byte("DPWAL001")

// frameOverhead is the length + CRC prefix of each record.
const frameOverhead = 8

// appendFramedRecord encodes rec (with Seq already assigned) onto buf.
func appendFramedRecord(buf []byte, rec *Record) []byte {
	payload := encodeRecordPayload(rec)
	var hdr [frameOverhead]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// framedRecordSize is the on-disk size of one record.
func framedRecordSize(rec *Record) int {
	return frameOverhead + len(encodeRecordPayload(rec))
}

func encodeRecordPayload(rec *Record) []byte {
	size := 1 + 8 +
		uvarintLen(uint64(len(rec.ID))) + len(rec.ID) +
		uvarintLen(uint64(len(rec.Meta))) + len(rec.Meta) +
		uvarintLen(uint64(len(rec.Blob))) + len(rec.Blob)
	out := make([]byte, 0, size)
	out = append(out, rec.Type)
	out = binary.LittleEndian.AppendUint64(out, rec.Seq)
	out = binary.AppendUvarint(out, uint64(len(rec.ID)))
	out = append(out, rec.ID...)
	out = binary.AppendUvarint(out, uint64(len(rec.Meta)))
	out = append(out, rec.Meta...)
	out = binary.AppendUvarint(out, uint64(len(rec.Blob)))
	out = append(out, rec.Blob...)
	return out
}

func uvarintLen(v uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], v)
}

func decodeRecordPayload(payload []byte) (Record, error) {
	var rec Record
	if len(payload) < 9 {
		return rec, fmt.Errorf("record payload of %d bytes is too short", len(payload))
	}
	rec.Type = payload[0]
	if rec.Type != RecordPipeline && rec.Type != RecordSubmission {
		return rec, fmt.Errorf("unknown record type %d", rec.Type)
	}
	rec.Seq = binary.LittleEndian.Uint64(payload[1:9])
	rest := payload[9:]
	var err error
	var id []byte
	if id, rest, err = readChunk(rest, "id"); err != nil {
		return rec, err
	}
	rec.ID = string(id)
	if rec.Meta, rest, err = readChunk(rest, "meta"); err != nil {
		return rec, err
	}
	if rec.Blob, rest, err = readChunk(rest, "blob"); err != nil {
		return rec, err
	}
	if len(rest) != 0 {
		return rec, fmt.Errorf("%d trailing bytes in record payload", len(rest))
	}
	return rec, nil
}

func readChunk(data []byte, what string) ([]byte, []byte, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 || n > uint64(len(data)-used) {
		return nil, nil, fmt.Errorf("truncated record %s", what)
	}
	return data[used : used+int(n)], data[used+int(n):], nil
}

// parseWAL walks the framed records in data. It returns the decoded
// records, the offset of the first byte NOT covered by a complete valid
// record (the truncation point for a torn tail), and an error for any
// damage a torn final write cannot explain: a CRC or structural failure
// with more bytes following, a sequence 0 or break, a bad header.
func parseWAL(data []byte) ([]Record, int64, error) {
	if len(data) == 0 {
		return nil, 0, nil
	}
	if len(data) < len(walMagic) {
		// A crash while creating the file can leave a partial header;
		// nothing was ever acknowledged out of it.
		return nil, 0, nil
	}
	if string(data[:len(walMagic)]) != string(walMagic) {
		return nil, 0, fmt.Errorf("bad WAL magic %q", data[:len(walMagic)])
	}
	var recs []Record
	off := int64(len(walMagic))
	total := int64(len(data))
	var prevSeq uint64
	for off < total {
		if total-off < frameOverhead {
			return recs, off, nil // torn tail: partial frame header
		}
		plen := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		wantCRC := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if off+frameOverhead+plen > total {
			return recs, off, nil // torn tail: payload bytes missing
		}
		payload := data[off+frameOverhead : off+frameOverhead+plen]
		end := off + frameOverhead + plen
		if crc32.Checksum(payload, crcTable) != wantCRC {
			if end == total {
				// The final record's bytes are all present but wrong: a
				// partially persisted last write. It was never
				// acknowledged, so discard it like a truncation.
				return recs, off, nil
			}
			return nil, 0, fmt.Errorf("record %d at offset %d fails its CRC with intact records after it: the log is corrupt, refusing to drop acknowledged state", len(recs)+1, off)
		}
		rec, err := decodeRecordPayload(payload)
		if err != nil {
			return nil, 0, fmt.Errorf("record %d at offset %d: %w", len(recs)+1, off, err)
		}
		if rec.Seq == 0 {
			return nil, 0, fmt.Errorf("record at offset %d has sequence 0, which Append never assigns", off)
		}
		if len(recs) > 0 && rec.Seq != prevSeq+1 {
			return nil, 0, fmt.Errorf("record at offset %d has sequence %d after %d: records are missing", off, rec.Seq, prevSeq)
		}
		prevSeq = rec.Seq
		recs = append(recs, rec)
		off = end
	}
	return recs, off, nil
}
