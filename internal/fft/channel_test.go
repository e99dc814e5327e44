package fft_test

import (
	"math"
	"math/rand"
	"testing"

	"dpspatial/internal/fft"
	"dpspatial/internal/fo"
)

// refChannel is fo.ConvChannel as it ran on the per-signal reference
// convolver: the d×d grid embedded in the top-left corner of an N×N
// buffer, convolved there with the rows pruned to d, and read back out.
type refChannel struct {
	d, N int
	z    []float64
	conv *fft.RefRealConv2D
	buf  []float64
	s    *fft.RefConvScratch
}

func newRefChannel(t *testing.T, d int, kern []float64) *refChannel {
	t.Helper()
	w := 2*d - 1
	N := fft.NextPow2(w)
	c := &refChannel{d: d, N: N, z: make([]float64, d*d), buf: make([]float64, N*N)}
	// Row normalisers in row-major output order, as NewConvChannel sums.
	for i := range c.z {
		xi, yi := i%d, i/d
		sum := 0.0
		for yj := 0; yj < d; yj++ {
			seg := kern[(yj-yi+d-1)*w+(0-xi+d-1):]
			for xj := 0; xj < d; xj++ {
				sum += seg[xj]
			}
		}
		c.z[i] = sum
	}
	emb := make([]float64, N*N)
	for dy := -(d - 1); dy <= d-1; dy++ {
		for dx := -(d - 1); dx <= d-1; dx++ {
			emb[((dy+N)%N)*N+(dx+N)%N] = kern[(dy+d-1)*w+(dx+d-1)]
		}
	}
	conv, err := fft.NewRefRealConv2D(N, emb)
	if err != nil {
		t.Fatal(err)
	}
	c.conv, c.s = conv, conv.NewScratch()
	return c
}

func (c *refChannel) embed(src, scale []float64) {
	d, N := c.d, c.N
	for y := 0; y < d; y++ {
		row := src[y*d : (y+1)*d]
		dst := c.buf[y*N : y*N+N]
		if scale != nil {
			zr := scale[y*d : (y+1)*d]
			for x, v := range row {
				dst[x] = v / zr[x]
			}
		} else {
			copy(dst, row)
		}
		for x := d; x < N; x++ {
			dst[x] = 0
		}
	}
}

func (c *refChannel) Forward(p, out []float64) {
	c.embed(p, c.z)
	c.conv.Apply(c.buf, c.buf, c.d, c.s, false)
	for y := 0; y < c.d; y++ {
		copy(out[y*c.d:(y+1)*c.d], c.buf[y*c.N:y*c.N+c.d])
	}
}

func (c *refChannel) Backward(w, out []float64) {
	c.embed(w, nil)
	c.conv.Apply(c.buf, c.buf, c.d, c.s, true)
	for i := range out {
		out[i] = c.buf[(i/c.d)*c.N+i%c.d] / c.z[i]
	}
}

// TestConvChannelMatchesReferenceBits holds fo.ConvChannel's sweeps to a
// channel built on the per-signal reference convolver, bit for bit, at
// every side of RefSides, for an even (SEM-Geo-I-shaped) and a non-even
// displacement kernel, on inputs holding ±0 and on an all-(−0) input.
func TestConvChannelMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	negZero := math.Copysign(0, -1)
	for _, d := range fft.RefSides {
		kernels := map[string][]float64{
			"even": fo.DisplacementKernel(d, func(dx, dy int) float64 {
				return math.Exp(-1.3 * math.Hypot(float64(dx), float64(dy)) / 2)
			}),
			"non-even": fo.DisplacementKernel(d, func(dx, dy int) float64 {
				if rng.Intn(6) == 0 {
					return 0
				}
				return rng.Float64() + 0.01
			}),
		}
		n := d * d
		mixed := make([]float64, n)
		for i := range mixed {
			switch rng.Intn(4) {
			case 0:
				mixed[i] = 0
			case 1:
				mixed[i] = negZero
			default:
				mixed[i] = rng.Float64()
			}
		}
		allNegZero := make([]float64, n)
		for i := range allNegZero {
			allNegZero[i] = negZero
		}
		for name, kern := range kernels {
			ch, err := fo.NewConvChannel(d, kern)
			if err != nil {
				t.Fatalf("d=%d %s: %v", d, name, err)
			}
			ref := newRefChannel(t, d, kern)
			for ii, in := range [][]float64{mixed, allNegZero} {
				for _, sweep := range []struct {
					name      string
					got, want func(in, out []float64)
				}{
					{"Forward", ch.Forward, ref.Forward},
					{"Backward", ch.Backward, ref.Backward},
				} {
					got, want := make([]float64, n), make([]float64, n)
					sweep.got(in, got)
					sweep.want(in, want)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("d=%d %s input %d %s: cell %d is %v (%#x), reference %v (%#x)",
								d, name, ii, sweep.name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
}
