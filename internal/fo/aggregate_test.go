package fo

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"testing"

	"dpspatial/internal/rng"
)

func grrAggregate(t *testing.T, g *GRR, n int, seed uint64) *Aggregate {
	t.Helper()
	agg := NewAggregateFor(g)
	r := rng.New(seed)
	for u := 0; u < n; u++ {
		rep, err := g.Report(u%g.NumInputs(), r)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	return agg
}

func TestAggregateAddCountsReports(t *testing.T) {
	g, err := NewGRR(5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	agg := grrAggregate(t, g, 200, 1)
	if agg.N != 200 {
		t.Fatalf("N = %v, want 200", agg.N)
	}
	total := 0.0
	for _, c := range agg.Planes[0] {
		total += c
	}
	if total != 200 {
		t.Fatalf("plane total = %v, want 200", total)
	}
	if agg.Scheme != g.Scheme() {
		t.Fatalf("scheme %q, want %q", agg.Scheme, g.Scheme())
	}
}

func TestAggregateMergeMatchesSingleShard(t *testing.T) {
	g, err := NewGRR(7, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	// One stream of reports, split round-robin across 3 shards, must
	// aggregate to the same counts as a single shard.
	r := rng.New(9)
	single := NewAggregateFor(g)
	shards := []*Aggregate{NewAggregateFor(g), NewAggregateFor(g), NewAggregateFor(g)}
	for u := 0; u < 500; u++ {
		rep, err := g.Report(u%7, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := single.Add(rep); err != nil {
			t.Fatal(err)
		}
		if err := shards[u%3].Add(rep); err != nil {
			t.Fatal(err)
		}
	}
	// ((s0 ⊕ s1) ⊕ s2) and (s0 ⊕ (s1 ⊕ s2)) and (s2 ⊕ s0 ⊕ s1).
	left := shards[0].Clone()
	if err := left.Merge(shards[1]); err != nil {
		t.Fatal(err)
	}
	if err := left.Merge(shards[2]); err != nil {
		t.Fatal(err)
	}
	rightInner := shards[1].Clone()
	if err := rightInner.Merge(shards[2]); err != nil {
		t.Fatal(err)
	}
	right := shards[0].Clone()
	if err := right.Merge(rightInner); err != nil {
		t.Fatal(err)
	}
	perm := shards[2].Clone()
	if err := perm.Merge(shards[0]); err != nil {
		t.Fatal(err)
	}
	if err := perm.Merge(shards[1]); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Aggregate{"left": left, "right": right, "perm": perm} {
		if !reflect.DeepEqual(got, single) {
			t.Fatalf("%s-assoc merge differs from single-shard aggregation", name)
		}
	}
}

func TestAggregateMergeRejectsIncompatible(t *testing.T) {
	g5, _ := NewGRR(5, 1.0)
	g7, _ := NewGRR(7, 1.0)
	a, b := NewAggregateFor(g5), NewAggregateFor(g7)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging different schemes should fail")
	}
	c := NewAggregateFor(g5)
	c.Scheme = a.Scheme
	c.Planes = [][]float64{make([]float64, 6)}
	if err := a.Merge(c); err == nil {
		t.Fatal("merging different plane sizes should fail")
	}
}

func TestAggregateAddRejectsBadReports(t *testing.T) {
	g, _ := NewGRR(5, 1.0)
	agg := NewAggregateFor(g)
	if err := agg.Add(Report{Planes: [][]int{{0}, {1}}}); err == nil {
		t.Fatal("wrong plane count should fail")
	}
	if err := agg.Add(Report{Planes: [][]int{{5}}}); err == nil {
		t.Fatal("out-of-range index should fail")
	}
	if err := agg.Add(Report{Planes: [][]int{{-1}}}); err == nil {
		t.Fatal("negative index should fail")
	}
	if agg.N != 0 {
		t.Fatalf("failed adds must not count reports, N = %v", agg.N)
	}
}

func TestAggregateBinaryRoundTrip(t *testing.T) {
	g, err := NewGRR(6, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	agg := grrAggregate(t, g, 300, 4)
	blob, err := agg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Aggregate
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, agg) {
		t.Fatal("binary round-trip changed the aggregate")
	}
	blob2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(blob, blob2) {
		t.Fatal("binary encoding is not deterministic")
	}
}

func TestAggregateBinaryRejectsGarbage(t *testing.T) {
	var a Aggregate
	if err := a.UnmarshalBinary([]byte("not an aggregate")); err == nil {
		t.Fatal("bad magic should fail")
	}
	g, _ := NewGRR(4, 1.0)
	blob, err := NewAggregateFor(g).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.UnmarshalBinary(blob[:len(blob)-3]); err == nil {
		t.Fatal("truncated payload should fail")
	}
	if err := a.UnmarshalBinary(append(blob, 0)); err == nil {
		t.Fatal("trailing bytes should fail")
	}
	// A plane size whose byte length overflows uint64 must error, not
	// panic in make().
	evil := append([]byte{}, aggregateMagic...)
	evil = append(evil, 0)          // empty scheme
	evil = append(evil, 1)          // one plane
	evil = append(evil, planeDense) // dense encoding
	evil = binary.AppendUvarint(evil, 1<<61)
	if err := a.UnmarshalBinary(evil); err == nil {
		t.Fatal("overflowing plane size should fail")
	}
}

// TestAggregateBinaryRejectsInvalidCounts pins the entry-point check:
// a blob carrying a cell or N that is NaN, negative, fractional or
// infinite fails to decode in both plane encodings, and leaves the
// target untouched.
func TestAggregateBinaryRejectsInvalidCounts(t *testing.T) {
	for _, bad := range []float64{math.NaN(), -3, 0.5, math.Inf(1)} {
		sparse := make([]float64, 64)
		sparse[5] = bad
		for name, agg := range map[string]*Aggregate{
			"dense cell":  {Scheme: "s", Planes: [][]float64{{1, bad, 2}}, N: 3},
			"sparse cell": {Scheme: "s", Planes: [][]float64{sparse}, N: 3},
			"N":           {Scheme: "s", Planes: [][]float64{{1, 0, 2}}, N: bad},
		} {
			blob, err := agg.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			back := Aggregate{Scheme: "untouched"}
			if err := back.UnmarshalBinary(blob); err == nil {
				t.Fatalf("%s = %v decoded", name, bad)
			}
			if back.Scheme != "untouched" || back.Planes != nil {
				t.Fatalf("%s = %v: failed decode modified the target", name, bad)
			}
		}
	}
}

// goldenAggregateBlobs holds both wire layouts the aggregate
// {Scheme: "grr/3 eps=2", Planes: {{1, 0, 2}}, N: 3} has had,
// hex-encoded. Only DPA2 decodes; a DPA1 blob is refused.
var goldenAggregateBlobs = map[string]string{
	// magic, uvarint scheme len, scheme, uvarint plane count, then
	// per plane: uvarint len, len × little-endian float64; then N.
	"DPA1": "445041310b6772722f33206570733d3201" +
		"03000000000000f03f00000000000000000000000000000040" +
		"0000000000000840",
	// v2 adds a per-plane encoding byte; this plane is mostly
	// non-zero but sparse (index/value pairs) is still 5 bytes
	// cheaper than dense at len 3 with one zero.
	"DPA2": "445041320b6772722f33206570733d3201" +
		"010302" + "00000000000000f03f" + "020000000000000040" +
		"0000000000000840",
}

// TestAggregateGoldenBlobs pins the wire layout against a fixed byte
// string, independently of the in-tree encoder: fleets hold DPA2 blobs
// encoded by past releases, so a consistent drift of encoder and
// decoder together must fail here even though round-trip tests stay
// green. The retired DPA1 layout is refused as a foreign blob.
func TestAggregateGoldenBlobs(t *testing.T) {
	agg := &Aggregate{Scheme: "grr/3 eps=2", Planes: [][]float64{{1, 0, 2}}, N: 3}
	for version, wantHex := range goldenAggregateBlobs {
		want, err := hex.DecodeString(wantHex)
		if err != nil {
			t.Fatal(err)
		}
		if version == "DPA1" {
			back := Aggregate{Scheme: "untouched"}
			const refusal = "fo: not a binary aggregate (bad magic)"
			if err := back.UnmarshalBinary(want); err == nil || err.Error() != refusal {
				t.Errorf("golden DPA1 blob: decode error %v, want %q", err, refusal)
			}
			if back.Scheme != "untouched" || back.Planes != nil {
				t.Errorf("refused DPA1 blob modified the target: %+v", back)
			}
			continue
		}
		blob, err := agg.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, want) {
			t.Errorf("%s encoding drifted from the golden blob:\n got %x\nwant %x", version, blob, want)
		}
		var back Aggregate
		if err := back.UnmarshalBinary(want); err != nil {
			t.Errorf("golden %s blob no longer decodes: %v", version, err)
		} else if !reflect.DeepEqual(&back, agg) {
			t.Errorf("golden %s blob decoded to %+v", version, &back)
		}
	}
}

func TestAggregateSparsePlaneCompaction(t *testing.T) {
	// A mostly-zero plane (the large-d regime) must be stored as
	// index/value pairs: far smaller than the dense 8 bytes/cell, with a
	// lossless, deterministic round trip.
	plane := make([]float64, 4096)
	plane[3] = 17
	plane[1024] = 1
	plane[4095] = 250
	agg := &Aggregate{Scheme: "sparse-test", Planes: [][]float64{plane}, N: 268}
	blob, err := agg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) >= 8*len(plane) {
		t.Fatalf("sparse plane encoded to %d bytes, dense would be %d", len(blob), 8*len(plane))
	}
	var back Aggregate
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, agg) {
		t.Fatal("sparse round-trip changed the aggregate")
	}
	blob2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(blob, blob2) {
		t.Fatal("sparse encoding is not deterministic")
	}
}

func TestAggregateDensePlaneStaysDense(t *testing.T) {
	// A plane with no zeros must not pay the sparse index overhead.
	plane := []float64{5, 1, 9, 2, 7, 3}
	agg := &Aggregate{Scheme: "dense-test", Planes: [][]float64{plane}, N: 27}
	blob, err := agg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Aggregate
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, agg) {
		t.Fatal("dense round-trip changed the aggregate")
	}
	// magic + schemeLen + scheme + planeCount + encoding + planeLen +
	// 6 float64s + N: the plane payload must be exactly dense-sized.
	wantLen := 4 + 1 + len("dense-test") + 1 + 1 + 1 + 8*6 + 8
	if len(blob) != wantLen {
		t.Fatalf("dense encoding is %d bytes, want %d", len(blob), wantLen)
	}
}

func TestAggregateMixedEncodingPlanes(t *testing.T) {
	// One sparse and one dense plane in the same aggregate: each plane
	// picks its own encoding independently.
	sparse := make([]float64, 512)
	sparse[100] = 40
	dense := []float64{10, 10, 10, 10}
	agg := &Aggregate{Scheme: "mixed", Planes: [][]float64{sparse, dense}, N: 40}
	blob, err := agg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Aggregate
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, agg) {
		t.Fatal("mixed-encoding round-trip changed the aggregate")
	}
}

func TestAggregateBinaryRejectsBadV2(t *testing.T) {
	var a Aggregate
	// Unknown future version.
	if err := a.UnmarshalBinary([]byte("DPA3\x00\x00")); err == nil {
		t.Fatal("unknown format version should fail")
	}
	// Unknown plane encoding byte.
	evil := append([]byte{}, aggregateMagic...)
	evil = append(evil, 0) // empty scheme
	evil = append(evil, 1) // one plane
	evil = append(evil, 7) // bogus encoding
	evil = append(evil, 0) // size
	if err := a.UnmarshalBinary(evil); err == nil {
		t.Fatal("unknown plane encoding should fail")
	}
	// Sparse entry count exceeding the plane size.
	evil = append([]byte{}, aggregateMagic...)
	evil = append(evil, 0, 1, planeSparse)
	evil = binary.AppendUvarint(evil, 4)  // size 4
	evil = binary.AppendUvarint(evil, 10) // nnz 10 > size
	if err := a.UnmarshalBinary(evil); err == nil {
		t.Fatal("overflowing sparse entry count should fail")
	}
	// Out-of-order sparse indices.
	evil = append([]byte{}, aggregateMagic...)
	evil = append(evil, 0, 1, planeSparse)
	evil = binary.AppendUvarint(evil, 8) // size
	evil = binary.AppendUvarint(evil, 2) // nnz
	evil = binary.AppendUvarint(evil, 5)
	evil = binary.LittleEndian.AppendUint64(evil, math.Float64bits(1))
	evil = binary.AppendUvarint(evil, 3) // decreasing index
	evil = binary.LittleEndian.AppendUint64(evil, math.Float64bits(1))
	if err := a.UnmarshalBinary(evil); err == nil {
		t.Fatal("out-of-order sparse indices should fail")
	}
}

// emptySparseBlob is a DPA2 blob of `planes` empty sparse planes of
// `size` cells each. At 2²⁸ cells each plane names 2 GiB of counts in 7
// bytes, and the one-plane blob is 22 bytes long.
func emptySparseBlob(planes int, size uint64) []byte {
	blob := append([]byte{}, aggregateMagic...)
	blob = append(blob, 1, 's', byte(planes))
	for p := 0; p < planes; p++ {
		blob = append(blob, planeSparse)
		blob = binary.AppendUvarint(blob, size)
		blob = binary.AppendUvarint(blob, 0)
	}
	return binary.LittleEndian.AppendUint64(blob, math.Float64bits(0))
}

func TestAggregateBinaryCapsTotalCells(t *testing.T) {
	for _, planes := range []int{1, 4} {
		blob := emptySparseBlob(planes, 1<<28)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var a Aggregate
		err := a.UnmarshalBinary(blob)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%d-byte blob naming %d sparse plane(s) of 2^28 cells decoded", len(blob), planes)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%d-byte blob allocated %d bytes before its refusal", len(blob), grew)
		}
	}
	// The cap bounds the planes' total, not each plane: two planes that
	// each fit but together exceed it are refused.
	var a Aggregate
	if err := a.UnmarshalBinary(emptySparseBlob(2, maxAggregateCells/2+1)); err == nil {
		t.Fatal("two planes totalling more than the cap decoded")
	}
}

// FuzzAggregateUnmarshalBinary feeds the aggregate decoder arbitrary
// bytes. It must never panic or accept more than maxAggregateCells
// cells, and whatever it accepts must re-encode to bytes that decode to
// the same scheme, planes and report count.
func FuzzAggregateUnmarshalBinary(f *testing.F) {
	for _, h := range goldenAggregateBlobs {
		blob, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	sparse := make([]float64, 4096)
	sparse[3], sparse[4095] = 17, 250
	blob, err := (&Aggregate{Scheme: "sparse", Planes: [][]float64{sparse, {100, 167}}, N: 267}).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(emptySparseBlob(1, 1<<28))
	f.Fuzz(func(t *testing.T, data []byte) {
		var a Aggregate
		if err := a.UnmarshalBinary(data); err != nil {
			return
		}
		cells := 0
		for _, p := range a.Planes {
			cells += len(p)
		}
		if cells > maxAggregateCells {
			t.Fatalf("%d-byte input decoded to %d cells, cap %d", len(data), cells, maxAggregateCells)
		}
		blob, err := a.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted aggregate does not re-encode: %v", err)
		}
		var back Aggregate
		if err := back.UnmarshalBinary(blob); err != nil {
			t.Fatalf("re-encoded aggregate does not decode: %v", err)
		}
		if !reflect.DeepEqual(&back, &a) {
			t.Fatalf("re-encoded aggregate decodes to different fields:\n got %+v\nwant %+v", &back, &a)
		}
	})
}

func TestAggregateJSONRoundTrip(t *testing.T) {
	g, err := NewGRR(6, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	agg := grrAggregate(t, g, 120, 8)
	blob, err := json.Marshal(agg)
	if err != nil {
		t.Fatal(err)
	}
	var back Aggregate
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, agg) {
		t.Fatal("JSON round-trip changed the aggregate")
	}
	blob2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatal("JSON encoding is not deterministic")
	}
}

func TestAccumulateMatchesManualLoop(t *testing.T) {
	g, err := NewGRR(5, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	trueCounts := []float64{10, 0, 25, 3, 7}
	agg := NewAggregateFor(g)
	if err := Accumulate(g, agg, trueCounts, rng.New(21)); err != nil {
		t.Fatal(err)
	}
	manual := NewAggregateFor(g)
	r := rng.New(21)
	for i, c := range trueCounts {
		for k := 0; k < int(c); k++ {
			rep, err := g.Report(i, r)
			if err != nil {
				t.Fatal(err)
			}
			if err := manual.Add(rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !reflect.DeepEqual(agg, manual) {
		t.Fatal("Accumulate differs from the manual report loop")
	}
	if err := Accumulate(g, NewAggregateFor(g), []float64{1, 2}, rng.New(1)); err == nil {
		t.Fatal("wrong count length should fail")
	}
	if err := Accumulate(g, NewAggregateFor(g), []float64{1, -1, 0, 0, 0}, rng.New(1)); err == nil {
		t.Fatal("negative count should fail")
	}
	if err := Accumulate(g, NewAggregateFor(g), []float64{1, math.Inf(1), 0, 0, 0}, rng.New(1)); err == nil {
		t.Fatal("infinite count should fail")
	}
}

func TestOUEReporterAggregate(t *testing.T) {
	o, err := NewOUE(6, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	trueCounts := []float64{4000, 0, 1000, 0, 3000, 2000}
	agg := NewAggregateFor(o)
	if err := Accumulate(o, agg, trueCounts, rng.New(5)); err != nil {
		t.Fatal(err)
	}
	if agg.N != 10000 {
		t.Fatalf("N = %v, want 10000", agg.N)
	}
	est, err := o.EstimateAggregate(agg)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.4, 0, 0.1, 0, 0.3, 0.2}
	for i := range want {
		if math.Abs(est[i]-want[i]) > 0.05 {
			t.Fatalf("category %d: estimate %v, want ≈ %v", i, est[i], want[i])
		}
	}
}
