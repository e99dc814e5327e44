package fo

import (
	"fmt"
	"math"
	"sync"

	"dpspatial/internal/fft"
	"dpspatial/internal/rng"
)

// ConvChannel is the convolutional form of a dense channel over a d×d
// grid whose kernel depends only on the cell displacement: a
// block-Toeplitz-with-Toeplitz-blocks matrix factored as
//
//	M = diag(1/z_i) · K,   K[i,j] = kern(c_j − c_i),
//
// where kern is the (2d−1)×(2d−1) displacement table and z_i is the
// per-row normaliser Σ_j kern(c_j − c_i). The displacement part K is
// exactly translation-invariant everywhere — including the grid borders,
// where only the normaliser z_i changes — so both EM sweeps reduce to one
// circular 2-D convolution on the grid embedded in the next
// power-of-two ≥ 2d−1 circulant:
//
//	Forward:  out = Mᵀp = K·(p/z)        (kern is even: Kᵀ = K)
//	Backward: out = (K⋆w)/z              (⋆ = correlation)
//
// at O(n log n) per sweep instead of the dense O(n²), with the kernel's
// FFT precomputed once at construction.
//
// Row materialisation reproduces the exact dense matrix bit for bit:
// entries are kern(off)/z_i with z_i accumulated in the same row-major
// order as a dense row-sum, so alias samplers built from Row are
// byte-identical to the dense channel's.
//
// A ConvChannel is safe for concurrent sweeps: per-call working memory
// comes from an internal pool, and all construction-time state is
// read-only afterwards.
type ConvChannel struct {
	d, n int // grid side d; n = d² inputs = outputs
	kern []float64
	z    []float64
	conv *fft.RealConv2D
	pool sync.Pool // *fft.ConvScratch
}

var _ LinearChannel = (*ConvChannel)(nil)

// DisplacementKernel tabulates f over every displacement (dx, dy) ∈
// [−(d−1), d−1]², in the (2d−1)×(2d−1) row-major layout NewConvChannel
// expects (centre at (d−1, d−1)).
func DisplacementKernel(d int, f func(dx, dy int) float64) []float64 {
	w := 2*d - 1
	kern := make([]float64, w*w)
	for dy := -(d - 1); dy <= d-1; dy++ {
		for dx := -(d - 1); dx <= d-1; dx++ {
			kern[(dy+d-1)*w+(dx+d-1)] = f(dx, dy)
		}
	}
	return kern
}

// NewConvChannel builds the convolutional channel for a d×d grid from the
// (2d−1)×(2d−1) displacement table kern (see DisplacementKernel). kern
// values must be non-negative and finite, and every row normaliser
// Σ_j kern(c_j − c_i) must be positive and finite.
func NewConvChannel(d int, kern []float64) (*ConvChannel, error) {
	if d < 1 {
		return nil, fmt.Errorf("fo: conv channel needs a positive grid side, got %d", d)
	}
	w := 2*d - 1
	if len(kern) != w*w {
		return nil, fmt.Errorf("fo: conv channel kernel has %d entries, want %d for d=%d", len(kern), w*w, d)
	}
	for _, v := range kern {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("fo: conv channel kernel has invalid entry %v", v)
		}
	}
	n := d * d
	c := &ConvChannel{d: d, n: n, kern: kern}

	// Per-row normalisers, accumulated in row-major output order — the
	// exact addend sequence of a dense row construction, so z (and hence
	// Row) is bit-identical to the dense build it replaces.
	c.z = make([]float64, n)
	for i := 0; i < n; i++ {
		xi, yi := i%d, i/d
		sum := 0.0
		for yj := 0; yj < d; yj++ {
			seg := kern[(yj-yi+d-1)*w+(0-xi+d-1):]
			for xj := 0; xj < d; xj++ {
				sum += seg[xj]
			}
		}
		if sum <= 0 || math.IsInf(sum, 0) || math.IsNaN(sum) {
			return nil, fmt.Errorf("fo: conv channel row %d has invalid normaliser %v", i, sum)
		}
		c.z[i] = sum
	}

	// Embed the kernel in the circulant: displacement t lives at t mod N.
	N := fft.NextPow2(w)
	emb := make([]float64, N*N)
	for dy := -(d - 1); dy <= d-1; dy++ {
		ey := ((dy + N) % N) * N
		for dx := -(d - 1); dx <= d-1; dx++ {
			emb[ey+(dx+N)%N] = kern[(dy+d-1)*w+(dx+d-1)]
		}
	}
	conv, err := fft.NewRealConv2D(d, emb)
	if err != nil {
		return nil, err
	}
	c.conv = conv
	return c, nil
}

// NumInputs implements LinearChannel.
func (c *ConvChannel) NumInputs() int { return c.n }

// NumOutputs implements LinearChannel.
func (c *ConvChannel) NumOutputs() int { return c.n }

// scratch borrows per-sweep working memory from the pool.
func (c *ConvChannel) scratch() *fft.ConvScratch {
	if s, ok := c.pool.Get().(*fft.ConvScratch); ok {
		return s
	}
	return c.conv.NewScratch()
}

// Forward implements LinearChannel: out = Mᵀp = K·(p/z), one FFT
// convolution of the grid p/z, staged in out.
func (c *ConvChannel) Forward(p, out []float64) {
	out = out[:c.n]
	for i, v := range p[:c.n] {
		out[i] = v / c.z[i]
	}
	s := c.scratch()
	c.conv.Apply(out, out, s, false)
	c.pool.Put(s)
}

// Backward implements LinearChannel: out = (K ⋆ w)/z, one FFT
// correlation.
func (c *ConvChannel) Backward(w, out []float64) {
	s := c.scratch()
	c.conv.Apply(w, out, s, true)
	c.pool.Put(s)
	for i, zi := range c.z {
		out[i] /= zi
	}
}

// Row implements LinearChannel, materialising row i into a fresh slice.
func (c *ConvChannel) Row(i int) []float64 {
	row := make([]float64, c.n)
	c.RowInto(i, row)
	return row
}

// RowInto materialises row i into dst (len NumOutputs) without
// allocating: kern(c_j − c_i)/z_i — bit-identical to the dense
// construction the channel replaces.
func (c *ConvChannel) RowInto(i int, dst []float64) {
	d, w := c.d, 2*c.d-1
	xi, yi := i%d, i/d
	zi := c.z[i]
	for yj := 0; yj < d; yj++ {
		seg := c.kern[(yj-yi+d-1)*w+(0-xi+d-1):]
		out := dst[yj*d : (yj+1)*d]
		for xj := range out {
			out[xj] = seg[xj] / zi
		}
	}
}

// Validate checks the row-stochastic invariant. Rows sum to z_i/z_i by
// construction — exactly 1 up to one rounding per entry, bounded well
// below the 1e-9 channel tolerance — so only the normalisers need
// checking: O(n), never O(n²).
func (c *ConvChannel) Validate() error {
	for i, zi := range c.z {
		if zi <= 0 || math.IsNaN(zi) || math.IsInf(zi, 0) {
			return fmt.Errorf("fo: conv channel row %d has invalid normaliser %v", i, zi)
		}
	}
	return nil
}

// Samplers builds one alias table per row — identical tables to the
// dense channel's, one dense row at a time.
func (c *ConvChannel) Samplers() ([]*rng.Alias, error) { return samplersByRows(c) }

// Dense materialises the full dense channel, bit-identical to the legacy
// dense construction (for the local-privacy adversary and audits).
func (c *ConvChannel) Dense() *Channel {
	ch := NewChannel(c.n, c.n)
	for i := 0; i < c.n; i++ {
		c.RowInto(i, ch.Row(i))
	}
	return ch
}
