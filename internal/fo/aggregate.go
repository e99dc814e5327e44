package fo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Aggregate is the server side of the report lifecycle: per-plane output
// counts accumulated from individual reports. Add and Merge are
// associative and commutative, so aggregation can be sharded across
// machines and merged in any grouping or order with a bit-identical
// result (counts are small integers, exactly representable in float64),
// and the deterministic binary/JSON encodings make aggregates safe to
// ship between processes.
type Aggregate struct {
	// Scheme is the report format this aggregate accumulates; Merge
	// refuses to combine aggregates with different schemes.
	Scheme string `json:"scheme"`
	// Planes holds one count vector per reporting plane.
	Planes [][]float64 `json:"planes"`
	// N is the number of reports absorbed (directly or via Merge). It is
	// the user count estimators such as OUE's need alongside the counts.
	N float64 `json:"n"`
}

// NewAggregateFor allocates an empty aggregate matching the reporter's
// scheme and plane shape.
func NewAggregateFor(rep Reporter) *Aggregate {
	shape := rep.ReportShape()
	planes := make([][]float64, len(shape))
	for i, n := range shape {
		planes[i] = make([]float64, n)
	}
	return &Aggregate{Scheme: rep.Scheme(), Planes: planes}
}

// AggregateFromCounts wraps already-aggregated per-plane counts (for
// example from a parallel bulk collection). Every plane must carry the
// same total, which becomes N. This is only correct for reporters that
// emit exactly one index per plane per report (every spatial mechanism);
// multi-index reporters like OUE must Add reports individually so N
// counts users, not support observations.
func AggregateFromCounts(scheme string, planes ...[]float64) (*Aggregate, error) {
	if len(planes) == 0 {
		return nil, fmt.Errorf("fo: aggregate needs at least one plane")
	}
	n := 0.0
	for p, counts := range planes {
		total := 0.0
		for i, c := range counts {
			if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("fo: invalid count %v at plane %d index %d", c, p, i)
			}
			total += c
		}
		if p == 0 {
			n = total
		} else if total != n {
			return nil, fmt.Errorf("fo: plane %d totals %v reports, plane 0 has %v", p, total, n)
		}
	}
	cloned := make([][]float64, len(planes))
	for i, counts := range planes {
		cloned[i] = append([]float64(nil), counts...)
	}
	return &Aggregate{Scheme: scheme, Planes: cloned, N: n}, nil
}

// Add absorbs one report.
func (a *Aggregate) Add(rep Report) error {
	if len(rep.Planes) != len(a.Planes) {
		return fmt.Errorf("fo: report has %d planes, aggregate %d", len(rep.Planes), len(a.Planes))
	}
	for p, idxs := range rep.Planes {
		for _, j := range idxs {
			if j < 0 || j >= len(a.Planes[p]) {
				return fmt.Errorf("fo: report index %d outside plane %d (size %d)", j, p, len(a.Planes[p]))
			}
		}
	}
	for p, idxs := range rep.Planes {
		for _, j := range idxs {
			a.Planes[p][j]++
		}
	}
	a.N++
	return nil
}

// Merge folds another shard's aggregate into this one. Both operands
// must share the scheme and plane shape; b is left unchanged.
func (a *Aggregate) Merge(b *Aggregate) error {
	if a.Scheme != b.Scheme {
		return fmt.Errorf("fo: cannot merge scheme %q into %q", b.Scheme, a.Scheme)
	}
	if len(a.Planes) != len(b.Planes) {
		return fmt.Errorf("fo: merge plane count mismatch (%d vs %d)", len(a.Planes), len(b.Planes))
	}
	for p := range a.Planes {
		if len(a.Planes[p]) != len(b.Planes[p]) {
			return fmt.Errorf("fo: merge plane %d size mismatch (%d vs %d)", p, len(a.Planes[p]), len(b.Planes[p]))
		}
	}
	for p := range a.Planes {
		for j, v := range b.Planes[p] {
			a.Planes[p][j] += v
		}
	}
	a.N += b.N
	return nil
}

// Clone returns a deep copy.
func (a *Aggregate) Clone() *Aggregate {
	planes := make([][]float64, len(a.Planes))
	for i, p := range a.Planes {
		planes[i] = append([]float64(nil), p...)
	}
	return &Aggregate{Scheme: a.Scheme, Planes: planes, N: a.N}
}

// Compatible reports whether the aggregate can be decoded by the
// reporter's estimator: same scheme and plane shape.
func (a *Aggregate) Compatible(rep Reporter) error {
	if a.Scheme != rep.Scheme() {
		return fmt.Errorf("fo: aggregate scheme %q, mechanism scheme %q", a.Scheme, rep.Scheme())
	}
	shape := rep.ReportShape()
	if len(a.Planes) != len(shape) {
		return fmt.Errorf("fo: aggregate has %d planes, mechanism expects %d", len(a.Planes), len(shape))
	}
	for p, n := range shape {
		if len(a.Planes[p]) != n {
			return fmt.Errorf("fo: aggregate plane %d has %d counts, mechanism expects %d", p, len(a.Planes[p]), n)
		}
	}
	return nil
}

// Every binary-encoded aggregate opens with "DPA" plus a format-version
// byte. Version 1 stores each plane as a dense float64 vector; version 2
// prefixes each plane with an encoding byte and stores mostly-zero
// planes as index/value pairs, so large-domain aggregates stop shipping
// dense zero runs over the wire. UnmarshalBinary accepts both.
var (
	aggregateMagic   = []byte("DPA1")
	aggregateMagicV2 = []byte("DPA2")
)

// Per-plane encodings of the version-2 format.
const (
	planeDense  = 0 // uvarint len, len × float64
	planeSparse = 1 // uvarint len, uvarint nnz, nnz × (uvarint index, float64); indices strictly increasing
)

// maxSparsePlaneCells bounds the allocation a sparse-encoded plane may
// request: its logical size is intentionally decoupled from the payload
// length, so a hostile blob could otherwise name a plane of 2⁶¹ cells.
// 2²⁸ cells (2 GiB dense) is far beyond any grid this system builds.
const maxSparsePlaneCells = 1 << 28

// sparseEncodedSize returns the byte cost of sparse-encoding a plane
// (excluding the shared length prefix); callers compare it against the
// dense cost 8·len and pick the smaller encoding.
func sparseEncodedSize(plane []float64) int {
	size := 0
	nnz := 0
	for j, v := range plane {
		if v != 0 {
			nnz++
			size += uvarintLen(uint64(j)) + 8
		}
	}
	return size + uvarintLen(uint64(nnz))
}

func uvarintLen(v uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], v)
}

// MarshalBinary encodes the aggregate deterministically in the version-2
// format: magic, scheme, plane count, then each plane with an encoding
// byte — dense (length-prefixed little-endian float64 vector) or sparse
// (index/value pairs), whichever is smaller — then N. The same aggregate
// always yields the same bytes.
func (a *Aggregate) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(aggregateMagicV2)
	writeUvarint(&buf, uint64(len(a.Scheme)))
	buf.WriteString(a.Scheme)
	writeUvarint(&buf, uint64(len(a.Planes)))
	var b [8]byte
	for _, plane := range a.Planes {
		if sparseEncodedSize(plane) < 8*len(plane) {
			buf.WriteByte(planeSparse)
			writeUvarint(&buf, uint64(len(plane)))
			nnz := 0
			for _, v := range plane {
				if v != 0 {
					nnz++
				}
			}
			writeUvarint(&buf, uint64(nnz))
			for j, v := range plane {
				if v == 0 {
					continue
				}
				writeUvarint(&buf, uint64(j))
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				buf.Write(b[:])
			}
		} else {
			buf.WriteByte(planeDense)
			writeUvarint(&buf, uint64(len(plane)))
			for _, v := range plane {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				buf.Write(b[:])
			}
		}
	}
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(a.N))
	buf.Write(b[:])
	return buf.Bytes(), nil
}

// MarshalBinaryV1 encodes the aggregate in the legacy DPA1 format: every
// plane dense, no per-plane encoding byte. Kept for fleets that still
// run version-1 shards (UnmarshalBinary accepts both, so mixed-version
// submissions merge transparently) and for compatibility tests.
func (a *Aggregate) MarshalBinaryV1() ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(aggregateMagic)
	writeUvarint(&buf, uint64(len(a.Scheme)))
	buf.WriteString(a.Scheme)
	writeUvarint(&buf, uint64(len(a.Planes)))
	var b [8]byte
	for _, plane := range a.Planes {
		writeUvarint(&buf, uint64(len(plane)))
		for _, v := range plane {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			buf.Write(b[:])
		}
	}
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(a.N))
	buf.Write(b[:])
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes either binary format version in place. It is
// where serialized aggregates enter a process (a POSTed shard, a
// snapshot or WAL record, a member pull), so it refuses any count —
// cell or N — that is not a finite, non-negative integer: one such cell
// would otherwise merge into the canonical aggregate and fail every
// later decode.
func (a *Aggregate) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	magic := make([]byte, len(aggregateMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("fo: not a binary aggregate (bad magic)")
	}
	var version int
	switch {
	case bytes.Equal(magic, aggregateMagic):
		version = 1
	case bytes.Equal(magic, aggregateMagicV2):
		version = 2
	default:
		return fmt.Errorf("fo: not a binary aggregate (bad magic)")
	}
	schemeLen, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("fo: truncated aggregate scheme length: %v", err)
	}
	if schemeLen > uint64(r.Len()) {
		return fmt.Errorf("fo: aggregate scheme length %d exceeds payload", schemeLen)
	}
	scheme := make([]byte, schemeLen)
	if _, err := io.ReadFull(r, scheme); err != nil {
		return fmt.Errorf("fo: truncated aggregate scheme: %v", err)
	}
	numPlanes, err := binary.ReadUvarint(r)
	if err != nil {
		return fmt.Errorf("fo: truncated plane count: %v", err)
	}
	if numPlanes > uint64(r.Len()) {
		return fmt.Errorf("fo: plane count %d exceeds payload", numPlanes)
	}
	planes := make([][]float64, numPlanes)
	for p := range planes {
		encoding := byte(planeDense)
		if version >= 2 {
			enc, err := r.ReadByte()
			if err != nil {
				return fmt.Errorf("fo: truncated plane %d encoding: %v", p, err)
			}
			encoding = enc
		}
		size, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("fo: truncated plane %d size: %v", p, err)
		}
		switch encoding {
		case planeDense:
			if size > uint64(r.Len())/8 {
				return fmt.Errorf("fo: plane %d size %d exceeds payload", p, size)
			}
			planes[p] = make([]float64, size)
			for j := range planes[p] {
				var b [8]byte
				if _, err := io.ReadFull(r, b[:]); err != nil {
					return fmt.Errorf("fo: truncated plane %d: %v", p, err)
				}
				v := math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
				if err := validCount(v, j); err != nil {
					return fmt.Errorf("%w of plane %d", err, p)
				}
				planes[p][j] = v
			}
		case planeSparse:
			// The logical size is decoupled from the payload length (that
			// is the point of the encoding), so bound the allocation by a
			// sanity cap instead.
			if size > maxSparsePlaneCells {
				return fmt.Errorf("fo: plane %d sparse size %d exceeds the %d-cell cap", p, size, maxSparsePlaneCells)
			}
			nnz, err := binary.ReadUvarint(r)
			if err != nil {
				return fmt.Errorf("fo: truncated plane %d entry count: %v", p, err)
			}
			if nnz > size || nnz > uint64(r.Len())/9 {
				return fmt.Errorf("fo: plane %d has %d sparse entries for size %d", p, nnz, size)
			}
			planes[p] = make([]float64, size)
			prev := -1
			for k := uint64(0); k < nnz; k++ {
				j, err := binary.ReadUvarint(r)
				if err != nil {
					return fmt.Errorf("fo: truncated plane %d sparse index: %v", p, err)
				}
				if j >= size || int(j) <= prev {
					return fmt.Errorf("fo: plane %d sparse index %d out of order or range", p, j)
				}
				prev = int(j)
				var b [8]byte
				if _, err := io.ReadFull(r, b[:]); err != nil {
					return fmt.Errorf("fo: truncated plane %d sparse value: %v", p, err)
				}
				v := math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
				if err := validCount(v, int(j)); err != nil {
					return fmt.Errorf("%w of plane %d", err, p)
				}
				planes[p][j] = v
			}
		default:
			return fmt.Errorf("fo: plane %d has unknown encoding %d", p, encoding)
		}
	}
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return fmt.Errorf("fo: truncated report count: %v", err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("fo: %d trailing bytes after aggregate", r.Len())
	}
	n := math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	if !isCount(n) {
		return fmt.Errorf("fo: invalid report count %v", n)
	}
	a.Scheme = string(scheme)
	a.Planes = planes
	a.N = n
	return nil
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var b [binary.MaxVarintLen64]byte
	buf.Write(b[:binary.PutUvarint(b[:], v)])
}

// isCount reports whether c is a user count: finite, non-negative and
// integral. NaN fails every comparison; +Inf is the one value the first
// two tests let through.
func isCount(c float64) bool {
	return c >= 0 && c == math.Trunc(c) && !math.IsInf(c, 1)
}

// validCount rejects per-cell user counts that are not isCount.
func validCount(c float64, cell int) error {
	if !isCount(c) {
		return fmt.Errorf("fo: invalid count %v at cell %d", c, cell)
	}
	return nil
}
