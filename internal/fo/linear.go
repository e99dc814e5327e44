package fo

import (
	"fmt"
	"math"
	"sort"

	"dpspatial/internal/rng"
)

// LinearChannel is the linear-operator view of a row-stochastic channel
// M: everything estimation needs without committing to a dense In×Out
// matrix. The EM engine consumes channels exclusively through this
// interface, so a channel whose rows are translates of one footprint
// (the DAM family), uniform-plus-sparse (Square Wave) or two-valued
// (GRR) can run its E and M sweeps in O(In + nnz) instead of O(In·Out).
//
// Forward and Backward are the two sweeps of one EM iteration:
//
//	Forward:  out_j = Σ_i p_i · M_ij   (predicted output mixture, Mᵀp)
//	Backward: out_i = Σ_j M_ij · w_j   (per-input responsibility, M·w)
//
// Row materialises row i for sampling, validation and inspection; the
// returned slice may be shared or freshly allocated — treat it as
// read-only and do not hold it across calls.
type LinearChannel interface {
	// NumInputs returns the input domain size.
	NumInputs() int
	// NumOutputs returns the output domain size.
	NumOutputs() int
	// Forward computes out = Mᵀp (len(p) = NumInputs, len(out) =
	// NumOutputs). out is overwritten.
	Forward(p, out []float64)
	// Backward computes out = M·w (len(w) = NumOutputs, len(out) =
	// NumInputs). out is overwritten.
	Backward(w, out []float64)
	// Row materialises M's i-th row.
	Row(i int) []float64
}

// --- Dense *Channel as a LinearChannel ---

var (
	_ LinearChannel = (*Channel)(nil)
	_ LinearChannel = (*UniformSparse)(nil)
	_ LinearChannel = (*TwoValue)(nil)
)

// NumInputs implements LinearChannel.
func (c *Channel) NumInputs() int { return c.In }

// NumOutputs implements LinearChannel.
func (c *Channel) NumOutputs() int { return c.Out }

// Forward implements LinearChannel: out = Mᵀp by dense row sweeps.
func (c *Channel) Forward(p, out []float64) {
	for j := range out {
		out[j] = 0
	}
	for i := 0; i < c.In; i++ {
		pi := p[i]
		if pi == 0 {
			continue
		}
		row := c.Row(i)
		for j, m := range row {
			out[j] += pi * m
		}
	}
}

// Backward implements LinearChannel: out = M·w.
func (c *Channel) Backward(w, out []float64) {
	for i := 0; i < c.In; i++ {
		row := c.Row(i)
		acc := 0.0
		for j, m := range row {
			if wj := w[j]; wj != 0 {
				acc += m * wj
			}
		}
		out[i] = acc
	}
}

// --- UniformSparse ---

// UniformSparse is a channel whose every row is a per-row base value plus
// a handful of sparse overrides — the form of Square Wave rows in 1-D,
// whose rows are not translates of one another. Rows are stored
// CSR-style: overrides for row i live in idx/val[rowStart[i]:rowStart[i+1]],
// sorted by output index, and carry the absolute probability (not a
// delta), so Row materialisation reproduces the dense matrix bit for
// bit. A channel whose rows are translates of one footprint is a
// Footprint instead, which holds the overrides once.
//
// Forward and Backward cost O(In + Out + nnz) instead of O(In·Out), and
// the whole structure occupies O(In + nnz) memory.
type UniformSparse struct {
	in, out  int
	base     []float64 // len in: the uniform value of row i
	rowStart []int     // len in+1: override extent per row
	idx      []int32   // override output indices, sorted within a row
	val      []float64 // override absolute probabilities

	// Run-length view of idx, built once at Build: overrides at
	// consecutive output indices collapse into runs, so the sweeps do
	// contiguous-range accumulation over val (bounds-check-eliminated
	// slice loops) instead of a per-element int32 index gather. A Square
	// Wave row's overrides are its high-density window and clipped edges,
	// a handful of runs. The sweep arithmetic visits the same entries in
	// the same order either way — results are bit-identical.
	runRowStart []int   // len in+1: run extent per row
	runStart    []int32 // first output index of each run
	runLen      []int32 // entries in each run (val stays the backing store)
}

// UniformSparseBuilder accumulates rows for a UniformSparse channel in
// input order.
type UniformSparseBuilder struct {
	u    *UniformSparse
	rows int
	err  error
}

// NewUniformSparseBuilder starts a builder for an in×out channel.
func NewUniformSparseBuilder(in, out int) *UniformSparseBuilder {
	b := &UniformSparseBuilder{u: &UniformSparse{
		in:       in,
		out:      out,
		base:     make([]float64, 0, in),
		rowStart: make([]int, 1, in+1),
	}}
	if in < 1 || out < 1 {
		b.err = fmt.Errorf("fo: uniform-sparse channel needs positive dimensions, got %d×%d", in, out)
	}
	return b
}

// Row appends the next input row: base probability plus overrides at the
// given output indices (absolute values, not deltas). idx need not be
// sorted; duplicate or out-of-range indices fail at Build.
func (b *UniformSparseBuilder) Row(base float64, idx []int, val []float64) {
	if b.err != nil {
		return
	}
	if len(idx) != len(val) {
		b.err = fmt.Errorf("fo: row %d has %d override indices but %d values", b.rows, len(idx), len(val))
		return
	}
	if b.rows >= b.u.in {
		b.err = fmt.Errorf("fo: more than %d rows appended", b.u.in)
		return
	}
	type ov struct {
		j int
		v float64
	}
	ovs := make([]ov, len(idx))
	for k, j := range idx {
		ovs[k] = ov{j: j, v: val[k]}
	}
	sort.Slice(ovs, func(a, c int) bool { return ovs[a].j < ovs[c].j })
	for k, o := range ovs {
		if o.j < 0 || o.j >= b.u.out {
			b.err = fmt.Errorf("fo: row %d override index %d outside [0, %d)", b.rows, o.j, b.u.out)
			return
		}
		if k > 0 && ovs[k-1].j == o.j {
			b.err = fmt.Errorf("fo: row %d has duplicate override index %d", b.rows, o.j)
			return
		}
		b.u.idx = append(b.u.idx, int32(o.j))
		b.u.val = append(b.u.val, o.v)
	}
	b.u.base = append(b.u.base, base)
	b.u.rowStart = append(b.u.rowStart, len(b.u.idx))
	b.rows++
}

// CompactRow appends a dense row, factoring it automatically into its
// modal value (the base) plus overrides for every entry that differs —
// the bridge for channels computed densely row by row (Square Wave). The
// materialised Row is bit-identical to the input.
func (b *UniformSparseBuilder) CompactRow(row []float64) {
	if b.err != nil {
		return
	}
	if len(row) != b.u.out {
		b.err = fmt.Errorf("fo: row %d has %d entries, channel has %d outputs", b.rows, len(row), b.u.out)
		return
	}
	base := modalValue(row)
	var idx []int
	var val []float64
	for j, v := range row {
		if v != base {
			idx = append(idx, j)
			val = append(val, v)
		}
	}
	b.Row(base, idx, val)
}

// modalValue returns the most frequent float64 in row (ties broken by
// first occurrence order after sorting — deterministic).
func modalValue(row []float64) float64 {
	sorted := append([]float64(nil), row...)
	sort.Float64s(sorted)
	best, bestN := sorted[0], 1
	cur, curN := sorted[0], 1
	for _, v := range sorted[1:] {
		if v == cur {
			curN++
		} else {
			cur, curN = v, 1
		}
		if curN > bestN {
			best, bestN = cur, curN
		}
	}
	return best
}

// Build finalises the channel. Every row must have been appended.
func (b *UniformSparseBuilder) Build() (*UniformSparse, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.rows != b.u.in {
		return nil, fmt.Errorf("fo: %d rows appended, channel has %d inputs", b.rows, b.u.in)
	}
	u := b.u
	u.runRowStart = make([]int, u.in+1)
	for i := 0; i < u.in; i++ {
		for k := u.rowStart[i]; k < u.rowStart[i+1]; {
			end := k + 1
			for end < u.rowStart[i+1] && u.idx[end] == u.idx[end-1]+1 {
				end++
			}
			u.runStart = append(u.runStart, u.idx[k])
			u.runLen = append(u.runLen, int32(end-k))
			k = end
		}
		u.runRowStart[i+1] = len(u.runStart)
	}
	return u, nil
}

// NumInputs implements LinearChannel.
func (u *UniformSparse) NumInputs() int { return u.in }

// NumOutputs implements LinearChannel.
func (u *UniformSparse) NumOutputs() int { return u.out }

// NNZ returns the total number of stored overrides.
func (u *UniformSparse) NNZ() int { return len(u.idx) }

// Row implements LinearChannel, materialising row i into a fresh slice.
func (u *UniformSparse) Row(i int) []float64 {
	row := make([]float64, u.out)
	u.RowInto(i, row)
	return row
}

// RowInto materialises row i into dst (len NumOutputs), avoiding the
// allocation of Row for callers that sweep many rows.
func (u *UniformSparse) RowInto(i int, dst []float64) {
	base := u.base[i]
	for j := range dst {
		dst[j] = base
	}
	for k := u.rowStart[i]; k < u.rowStart[i+1]; k++ {
		dst[u.idx[k]] = u.val[k]
	}
}

// Forward implements LinearChannel in O(In + Out + nnz): the base parts
// of all rows contribute the single constant Σ_i p_i·base_i to every
// output, and each override shifts p_i·(val − base_i) onto its column.
// Override corrections accumulate run by run: each run is a contiguous
// out/val slice pair, so the inner loop is a straight fused multiply-add
// stream with no index gather.
func (u *UniformSparse) Forward(p, out []float64) {
	baseMass := 0.0
	for i := 0; i < u.in; i++ {
		baseMass += p[i] * u.base[i]
	}
	for j := range out {
		out[j] = baseMass
	}
	for i := 0; i < u.in; i++ {
		pi := p[i]
		if pi == 0 {
			continue
		}
		base := u.base[i]
		k := u.rowStart[i]
		for r := u.runRowStart[i]; r < u.runRowStart[i+1]; r++ {
			j0 := int(u.runStart[r])
			l := int(u.runLen[r])
			o := out[j0 : j0+l]
			v := u.val[k : k+l : k+l]
			for x := range o {
				o[x] += pi * (v[x] - base)
			}
			k += l
		}
	}
}

// Backward implements LinearChannel in O(In + Out + nnz): row i's dot
// with w is base_i·Σ_j w_j plus the override corrections, with the same
// run-length contiguous accumulation as Forward.
func (u *UniformSparse) Backward(w, out []float64) {
	wSum := 0.0
	for _, wj := range w {
		wSum += wj
	}
	for i := 0; i < u.in; i++ {
		base := u.base[i]
		acc := base * wSum
		k := u.rowStart[i]
		for r := u.runRowStart[i]; r < u.runRowStart[i+1]; r++ {
			j0 := int(u.runStart[r])
			l := int(u.runLen[r])
			ws := w[j0 : j0+l : j0+l]
			v := u.val[k : k+l : k+l]
			for x, wx := range ws {
				acc += (v[x] - base) * wx
			}
			k += l
		}
		out[i] = acc
	}
}

// Validate checks that every row is a probability distribution, in
// O(In + nnz) using the closed per-row sum base·(Out − nnz_i) + Σ val.
func (u *UniformSparse) Validate() error {
	for i := 0; i < u.in; i++ {
		base := u.base[i]
		if base < 0 || math.IsNaN(base) {
			return fmt.Errorf("fo: channel row %d has invalid base %v", i, base)
		}
		nnz := u.rowStart[i+1] - u.rowStart[i]
		sum := base * float64(u.out-nnz)
		for k := u.rowStart[i]; k < u.rowStart[i+1]; k++ {
			v := u.val[k]
			if v < 0 || math.IsNaN(v) {
				return fmt.Errorf("fo: channel row %d has invalid entry %v", i, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("fo: channel row %d sums to %v", i, sum)
		}
	}
	return nil
}

// Dense materialises the full dense channel (for callers that genuinely
// need the matrix, e.g. the local-privacy adversary).
func (u *UniformSparse) Dense() *Channel {
	ch := NewChannel(u.in, u.out)
	for i := 0; i < u.in; i++ {
		u.RowInto(i, ch.Row(i))
	}
	return ch
}

// --- TwoValue ---

// TwoValue is the closed form of generalized randomized response: a k×k
// channel with diag on the diagonal and off everywhere else. Forward and
// Backward cost O(k).
type TwoValue struct {
	k         int
	diag, off float64
}

// NewTwoValue builds the channel; rows must be probability distributions
// (diag + (k−1)·off = 1 within 1e-9).
func NewTwoValue(k int, diag, off float64) (*TwoValue, error) {
	if k < 1 {
		return nil, fmt.Errorf("fo: two-value channel needs k >= 1, got %d", k)
	}
	if diag < 0 || off < 0 || math.IsNaN(diag) || math.IsNaN(off) {
		return nil, fmt.Errorf("fo: invalid two-value probabilities (%v, %v)", diag, off)
	}
	if sum := diag + float64(k-1)*off; math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("fo: two-value row sums to %v", sum)
	}
	return &TwoValue{k: k, diag: diag, off: off}, nil
}

// NumInputs implements LinearChannel.
func (t *TwoValue) NumInputs() int { return t.k }

// NumOutputs implements LinearChannel.
func (t *TwoValue) NumOutputs() int { return t.k }

// Row implements LinearChannel.
func (t *TwoValue) Row(i int) []float64 {
	row := make([]float64, t.k)
	for j := range row {
		row[j] = t.off
	}
	row[i] = t.diag
	return row
}

// Forward implements LinearChannel: out_j = off·Σp + (diag − off)·p_j.
func (t *TwoValue) Forward(p, out []float64) {
	mass := 0.0
	for i := 0; i < t.k; i++ {
		mass += p[i]
	}
	for j := range out {
		out[j] = t.off * mass
	}
	d := t.diag - t.off
	for i := 0; i < t.k; i++ {
		out[i] += d * p[i]
	}
}

// Backward implements LinearChannel: out_i = off·Σw + (diag − off)·w_i.
func (t *TwoValue) Backward(w, out []float64) {
	wSum := 0.0
	for _, wj := range w {
		wSum += wj
	}
	d := t.diag - t.off
	for i := 0; i < t.k; i++ {
		out[i] = t.off*wSum + d*w[i]
	}
}

// --- Generic helpers over materialised rows ---

// maxRatioByRows computes Channel.MaxRatio semantics for any
// LinearChannel by streaming one row at a time and tracking per-column
// extrema, using O(Out) working memory.
func maxRatioByRows(c LinearChannel) float64 {
	in, out := c.NumInputs(), c.NumOutputs()
	minV := make([]float64, out)
	maxV := make([]float64, out)
	for j := range minV {
		minV[j] = math.Inf(1)
	}
	for i := 0; i < in; i++ {
		for j, v := range c.Row(i) {
			if v < minV[j] {
				minV[j] = v
			}
			if v > maxV[j] {
				maxV[j] = v
			}
		}
	}
	worst := 1.0
	for j := 0; j < out; j++ {
		if maxV[j] == 0 {
			continue
		}
		if minV[j] == 0 {
			return math.Inf(1)
		}
		if ratio := maxV[j] / minV[j]; ratio > worst {
			worst = ratio
		}
	}
	return worst
}

// samplersByRows builds one alias table per materialised row.
func samplersByRows(c LinearChannel) ([]*rng.Alias, error) {
	in := c.NumInputs()
	tables := make([]*rng.Alias, in)
	for i := 0; i < in; i++ {
		t, err := rng.NewAlias(c.Row(i))
		if err != nil {
			return nil, fmt.Errorf("fo: row %d: %w", i, err)
		}
		tables[i] = t
	}
	return tables, nil
}
