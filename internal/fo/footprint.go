package fo

import (
	"fmt"
	"math"
	"sort"

	"dpspatial/internal/geom"
	"dpspatial/internal/rng"
)

// Footprint is a channel over a d×d grid in which every input cell
// reports through one footprint translated to that cell: row (x, y) is q̂
// at every output except the K cells (x, y) + off_k, where it is val_k.
// It is the SAM family's channel (DAM, DAM-NS, HUEM): val_k is q̂ times
// the wave function W of Definition 4 at offset k, and the output domain
// D̃ is the union of the translates.
//
// D̃ lists its cells row by row, and its rows are contiguous in X, so
// offset k translated along input grid row y covers d consecutive
// outputs: cell (x, y) + off_k is output base[y·K+k] + x. The channel
// stores q̂, the K values, their deltas val_k − q̂ and the d·K bases —
// O(d·K) memory, where a row-by-row form holds d²·K overrides.
//
// The sweeps give every output and every input the same terms, in the
// same order, as UniformSparse's row-by-row sweeps over the same rows:
// an output takes its terms in ascending input order, an input in
// ascending offset order. The two forms are bit-identical. All state is
// read-only after construction, so concurrent sweeps are safe.
type Footprint struct {
	d, out int
	q      float64
	val    []float64 // len K: the value at offset k, offsets ascending in (Y, X)
	delta  []float64 // len K: val[k] − q; q + delta[k] need not round to val[k]
	base   []int     // len d·K: output index of cell (0, y) + off_k, at y·K + k
}

var _ LinearChannel = (*Footprint)(nil)

// NewFootprint builds the channel over a d×d grid whose every row is q
// except val[k] at offset offs[k] from the input cell, over the output
// cells out. offs and out must be strictly ascending in (Y, X), every
// translate of the footprint must lie in out with each of its grid rows
// on consecutive outputs, and a row must sum to 1 within 1e-9. All rows
// are translates, so one row's sum checks them all.
func NewFootprint(d int, q float64, offs []geom.Cell, val []float64, out []geom.Cell) (*Footprint, error) {
	if d < 1 {
		return nil, fmt.Errorf("fo: footprint channel needs a positive grid side, got %d", d)
	}
	k := len(offs)
	if len(val) != k {
		return nil, fmt.Errorf("fo: footprint has %d offsets but %d values", k, len(val))
	}
	less := func(a, b geom.Cell) bool { return a.Y < b.Y || a.Y == b.Y && a.X < b.X }
	for i := 1; i < k; i++ {
		if !less(offs[i-1], offs[i]) {
			return nil, fmt.Errorf("fo: footprint offset %v does not follow %v", offs[i], offs[i-1])
		}
	}
	for j := 1; j < len(out); j++ {
		if !less(out[j-1], out[j]) {
			return nil, fmt.Errorf("fo: footprint output %v does not follow %v", out[j], out[j-1])
		}
	}
	if q < 0 || math.IsNaN(q) {
		return nil, fmt.Errorf("fo: footprint channel has invalid base %v", q)
	}
	sum := q * float64(len(out)-k)
	delta := make([]float64, k)
	for i, v := range val {
		if v < 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("fo: footprint channel has invalid entry %v", v)
		}
		sum += v
		delta[i] = v - q
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("fo: footprint channel row sums to %v", sum)
	}
	base := make([]int, d*k)
	for y := 0; y < d; y++ {
		for i, off := range offs {
			first := geom.Cell{X: off.X, Y: y + off.Y}
			last := geom.Cell{X: d - 1 + off.X, Y: y + off.Y}
			j := sort.Search(len(out), func(j int) bool { return !less(out[j], first) })
			if j+d > len(out) || out[j] != first || out[j+d-1] != last {
				return nil, fmt.Errorf("fo: footprint offset %v along grid row %d is not %d consecutive outputs", off, y, d)
			}
			base[y*k+i] = j
		}
	}
	return &Footprint{d: d, out: len(out), q: q, val: val, delta: delta, base: base}, nil
}

// NumInputs implements LinearChannel.
func (f *Footprint) NumInputs() int { return f.d * f.d }

// NumOutputs implements LinearChannel.
func (f *Footprint) NumOutputs() int { return f.out }

// Row implements LinearChannel, materialising row i into a fresh slice.
func (f *Footprint) Row(i int) []float64 {
	row := make([]float64, f.out)
	f.RowInto(i, row)
	return row
}

// RowInto materialises row i into dst (len NumOutputs) without
// allocating.
func (f *Footprint) RowInto(i int, dst []float64) {
	for j := range dst {
		dst[j] = f.q
	}
	k := len(f.val)
	y, x := i/f.d, i%f.d
	for o, j := range f.base[y*k : y*k+k] {
		dst[j+x] = f.val[o]
	}
}

// Forward implements LinearChannel in O(d²·K): every output starts at
// Σ_i p_i·q̂, then each input grid row adds p·δ_k along each offset's
// translate. Offsets go in descending output order, so an output that
// two offsets of one grid row reach takes the smaller input first: every
// output sums its terms in ascending input order, as the row-by-row form
// does. Four offsets share one pass over the row; in that pass the
// higher offset reaches a shared output at the earlier input, so the
// order holds. A zero p_i adds ±0, which changes no sum.
func (f *Footprint) Forward(p, out []float64) {
	d, k := f.d, len(f.delta)
	baseMass := 0.0
	for _, pi := range p[:d*d] {
		baseMass += pi * f.q
	}
	for j := range out {
		out[j] = baseMass
	}
	for y := 0; y < d; y++ {
		py := p[y*d : y*d+d]
		bases := f.base[y*k : y*k+k]
		o := k - 1
		for ; o >= 3; o -= 4 {
			d0, d1, d2, d3 := f.delta[o], f.delta[o-1], f.delta[o-2], f.delta[o-3]
			s0 := out[bases[o]:]
			s0 = s0[:len(py)]
			s1 := out[bases[o-1]:]
			s1 = s1[:len(py)]
			s2 := out[bases[o-2]:]
			s2 = s2[:len(py)]
			s3 := out[bases[o-3]:]
			s3 = s3[:len(py)]
			for x, px := range py {
				s0[x] += px * d0
				s1[x] += px * d1
				s2[x] += px * d2
				s3[x] += px * d3
			}
		}
		for ; o >= 0; o-- {
			d0 := f.delta[o]
			s0 := out[bases[o]:]
			s0 = s0[:len(py)]
			for x, px := range py {
				s0[x] += px * d0
			}
		}
	}
}

// Backward implements LinearChannel in O(d²·K): input (x, y) is
// q̂·Σ_j w_j plus δ_k·w at each offset's output, in ascending offset
// order. Eight cells of a grid row go at once, each in its own
// accumulator, so their add chains overlap. A row whose length is not a
// multiple of eight ends with a block that overlaps the one before, and
// its shared cells get the same sums twice.
func (f *Footprint) Backward(w, out []float64) {
	wSum := 0.0
	for _, wj := range w {
		wSum += wj
	}
	init := f.q * wSum
	d, k := f.d, len(f.delta)
	for y := 0; y < d; y++ {
		bases := f.base[y*k : y*k+k]
		delta := f.delta[:len(bases)]
		row := out[y*d : y*d+d]
		if len(row) < 8 {
			for x := range row {
				acc := init
				for o, j := range bases {
					acc += delta[o] * w[j+x]
				}
				row[x] = acc
			}
			continue
		}
		for x := 0; x < len(row); x += 8 {
			x = min(x, len(row)-8)
			a0, a1, a2, a3 := init, init, init, init
			a4, a5, a6, a7 := init, init, init, init
			for o, j := range bases {
				dk := delta[o]
				ws := w[j+x : j+x+8]
				a0 += dk * ws[0]
				a1 += dk * ws[1]
				a2 += dk * ws[2]
				a3 += dk * ws[3]
				a4 += dk * ws[4]
				a5 += dk * ws[5]
				a6 += dk * ws[6]
				a7 += dk * ws[7]
			}
			r := row[x : x+8]
			r[0], r[1], r[2], r[3] = a0, a1, a2, a3
			r[4], r[5], r[6], r[7] = a4, a5, a6, a7
		}
	}
}

// Samplers builds one alias table per materialised row — identical
// tables to the dense channel's, one dense row at a time.
func (f *Footprint) Samplers() ([]*rng.Alias, error) { return samplersByRows(f) }

// Dense materialises the full dense channel (for the local-privacy
// adversary and row-level inspection).
func (f *Footprint) Dense() *Channel {
	n := f.d * f.d
	ch := NewChannel(n, f.out)
	for i := 0; i < n; i++ {
		f.RowInto(i, ch.Row(i))
	}
	return ch
}
