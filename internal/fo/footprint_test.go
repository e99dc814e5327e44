package fo

import (
	"math"
	"sort"
	"strings"
	"testing"

	"dpspatial/internal/geom"
	"dpspatial/internal/rng"
)

// randomFootprint draws a footprint of random cells in a 5×5 window
// around the origin, with random positive values scaled so a row sums to
// one, and returns it with D̃, the union of its translates over a d×d
// grid in row-major order.
func randomFootprint(r *rng.RNG, d int) (q float64, offs []geom.Cell, val []float64, out []geom.Cell) {
	for dy := -2; dy <= 2; dy++ {
		for dx := -2; dx <= 2; dx++ {
			if r.Intn(2) == 0 || dx == 0 && dy == 0 {
				offs = append(offs, geom.Cell{X: dx, Y: dy})
			}
		}
	}
	seen := map[geom.Cell]bool{}
	for y := 0; y < d; y++ {
		for x := 0; x < d; x++ {
			for _, off := range offs {
				seen[geom.Cell{X: x + off.X, Y: y + off.Y}] = true
			}
		}
	}
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Y < out[j].Y || out[i].Y == out[j].Y && out[i].X < out[j].X
	})
	raw := make([]float64, len(offs))
	total := float64(len(out) - len(offs))
	for k := range raw {
		raw[k] = r.Float64() * 4
		total += raw[k]
	}
	val = make([]float64, len(offs))
	for k := range val {
		val[k] = raw[k] / total
	}
	return 1 / total, offs, val, out
}

// TestFootprintMatchesRowByRow: a footprint channel must be the
// row-by-row uniform-plus-sparse channel with the same rows, bit for bit,
// in its rows and both sweeps, on inputs with zeros.
func TestFootprintMatchesRowByRow(t *testing.T) {
	r := rng.New(17)
	for _, d := range []int{1, 2, 3, 7, 8, 9, 16, 17} {
		q, offs, val, out := randomFootprint(r, d)
		f, err := NewFootprint(d, q, offs, val, out)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		index := make(map[geom.Cell]int, len(out))
		for j, c := range out {
			index[c] = j
		}
		b := NewUniformSparseBuilder(d*d, len(out))
		idx := make([]int, len(offs))
		for i := 0; i < d*d; i++ {
			for k, off := range offs {
				idx[k] = index[geom.Cell{X: i%d + off.X, Y: i/d + off.Y}]
			}
			b.Row(q, idx, val)
		}
		u, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if f.NumInputs() != u.NumInputs() || f.NumOutputs() != u.NumOutputs() {
			t.Fatalf("d=%d: dimensions differ", d)
		}
		same := func(what string, got, want []float64) {
			t.Helper()
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("d=%d: %s entry %d: %v != %v", d, what, j, got[j], want[j])
				}
			}
		}
		for i := 0; i < d*d; i++ {
			same("row", f.Row(i), u.Row(i))
		}
		dense := f.Dense()
		for i := 0; i < d*d; i++ {
			same("dense row", dense.Row(i), u.Row(i))
		}
		for trial := 0; trial < 3; trial++ {
			p := make([]float64, d*d)
			for i := range p {
				if r.Intn(3) != 0 {
					p[i] = r.Float64()
				}
			}
			w := make([]float64, len(out))
			for j := range w {
				if r.Intn(3) != 0 {
					w[j] = r.Float64() * 7
				}
			}
			got, want := make([]float64, len(out)), make([]float64, len(out))
			f.Forward(p, got)
			u.Forward(p, want)
			same("Forward", got, want)
			gotB, wantB := make([]float64, d*d), make([]float64, d*d)
			f.Backward(w, gotB)
			u.Backward(w, wantB)
			same("Backward", gotB, wantB)
		}
	}
}

func TestFootprintRefusesBadChannels(t *testing.T) {
	// Randomized response on a 2×2 grid: q everywhere, p on the cell.
	cells := []geom.Cell{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}}
	origin := []geom.Cell{{}}
	if _, err := NewFootprint(2, 0.2, origin, []float64{0.4}, cells); err != nil {
		t.Fatalf("valid channel refused: %v", err)
	}
	for _, c := range []struct {
		name string
		d    int
		q    float64
		offs []geom.Cell
		val  []float64
		out  []geom.Cell
		want string
	}{
		{"no grid", 0, 0.2, origin, []float64{0.4}, cells, "positive grid side"},
		{"values", 2, 0.2, origin, []float64{0.4, 0.1}, cells, "1 offsets but 2 values"},
		{"offset order", 2, 0.1, []geom.Cell{{X: 1}, {}}, []float64{0.3, 0.3}, cells, "does not follow"},
		{"output order", 2, 0.2, origin, []float64{0.4}, []geom.Cell{{X: 1}, {}, {Y: 1}, {X: 1, Y: 1}}, "does not follow"},
		{"negative base", 2, -0.2, origin, []float64{1.6}, cells, "invalid base"},
		{"negative entry", 2, 0.5, origin, []float64{-0.5}, cells, "invalid entry"},
		{"row sum", 2, 0.25, origin, []float64{0.4}, cells, "sums to"},
		{"translate outside", 2, 0.25, []geom.Cell{{X: 1}}, []float64{0.25}, cells, "not 2 consecutive outputs"},
		{"gap in a row", 2, 0.2, origin, []float64{0.2},
			[]geom.Cell{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}, {X: 2, Y: 1}}, "not 2 consecutive outputs"},
	} {
		_, err := NewFootprint(c.d, c.q, c.offs, c.val, c.out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}
