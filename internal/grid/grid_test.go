package grid

import (
	"math"
	"testing"
	"testing/quick"

	"dpspatial/internal/geom"
	"dpspatial/internal/rng"
)

func mustDomain(t *testing.T, minX, minY, side float64, d int) Domain {
	t.Helper()
	dom, err := NewDomain(minX, minY, side, d)
	if err != nil {
		t.Fatal(err)
	}
	return dom
}

func TestNewDomainValidation(t *testing.T) {
	if _, err := NewDomain(0, 0, 0, 5); err == nil {
		t.Fatal("zero side accepted")
	}
	if _, err := NewDomain(0, 0, -1, 5); err == nil {
		t.Fatal("negative side accepted")
	}
	if _, err := NewDomain(0, 0, math.NaN(), 5); err == nil {
		t.Fatal("NaN side accepted")
	}
	if _, err := NewDomain(0, 0, 1, 0); err == nil {
		t.Fatal("d=0 accepted")
	}
}

func TestCellOfCorners(t *testing.T) {
	dom := mustDomain(t, 0, 0, 10, 5)
	cases := []struct {
		p    geom.Point
		want geom.Cell
	}{
		{geom.Point{X: 0, Y: 0}, geom.Cell{X: 0, Y: 0}},
		{geom.Point{X: 1.99, Y: 0}, geom.Cell{X: 0, Y: 0}},
		{geom.Point{X: 2, Y: 0}, geom.Cell{X: 1, Y: 0}},
		{geom.Point{X: 9.99, Y: 9.99}, geom.Cell{X: 4, Y: 4}},
		{geom.Point{X: 10, Y: 10}, geom.Cell{X: 4, Y: 4}},   // max edge clamps in
		{geom.Point{X: -5, Y: 50}, geom.Cell{X: 0, Y: 4}},   // out-of-domain clamps
		{geom.Point{X: 5.0, Y: 7.3}, geom.Cell{X: 2, Y: 3}}, // interior
	}
	for _, c := range cases {
		if got := dom.CellOf(c.p); got != c.want {
			t.Errorf("CellOf(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestCellCenterRoundTrip(t *testing.T) {
	dom := mustDomain(t, -3, 2, 7, 9)
	for y := 0; y < dom.D; y++ {
		for x := 0; x < dom.D; x++ {
			c := geom.Cell{X: x, Y: y}
			if got := dom.CellOf(dom.CellCenter(c)); got != c {
				t.Fatalf("centre of %v maps back to %v", c, got)
			}
		}
	}
}

func TestIndexRoundTrip(t *testing.T) {
	dom := mustDomain(t, 0, 0, 1, 7)
	for i := 0; i < dom.NumCells(); i++ {
		if got := dom.Index(dom.CellAt(i)); got != i {
			t.Fatalf("index %d round-trips to %d", i, got)
		}
	}
}

func TestContains(t *testing.T) {
	dom := mustDomain(t, 0, 0, 1, 3)
	if !dom.Contains(geom.Cell{X: 0, Y: 0}) || !dom.Contains(geom.Cell{X: 2, Y: 2}) {
		t.Fatal("interior cells reported outside")
	}
	for _, c := range []geom.Cell{{X: -1, Y: 0}, {X: 0, Y: -1}, {X: 3, Y: 0}, {X: 0, Y: 3}} {
		if dom.Contains(c) {
			t.Fatalf("cell %v reported inside", c)
		}
	}
}

func TestSquareDomainCoversPoints(t *testing.T) {
	pts := []geom.Point{{X: 1, Y: 2}, {X: 4, Y: -1}, {X: 3, Y: 8}}
	dom, err := SquareDomain(pts, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		c := dom.CellOf(p)
		if !dom.Contains(c) {
			t.Fatalf("point %v maps outside domain", p)
		}
	}
	if dom.Side < 9 { // y spread is 9
		t.Fatalf("side %v does not cover the spread", dom.Side)
	}
}

func TestSquareDomainDegenerate(t *testing.T) {
	if _, err := SquareDomain(nil, 4); err == nil {
		t.Fatal("empty point set accepted")
	}
	dom, err := SquareDomain([]geom.Point{{X: 3, Y: 3}, {X: 3, Y: 3}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if dom.Side <= 0 {
		t.Fatalf("degenerate point set produced side %v", dom.Side)
	}
}

func TestHistFromPointsCounts(t *testing.T) {
	dom := mustDomain(t, 0, 0, 2, 2)
	pts := []geom.Point{{X: 0.5, Y: 0.5}, {X: 0.6, Y: 0.4}, {X: 1.5, Y: 1.5}}
	h := HistFromPoints(dom, pts)
	if h.At(geom.Cell{X: 0, Y: 0}) != 2 {
		t.Fatalf("cell (0,0) count %v", h.At(geom.Cell{X: 0, Y: 0}))
	}
	if h.At(geom.Cell{X: 1, Y: 1}) != 1 {
		t.Fatalf("cell (1,1) count %v", h.At(geom.Cell{X: 1, Y: 1}))
	}
	if h.Total() != 3 {
		t.Fatalf("total %v", h.Total())
	}
}

func TestNormalize(t *testing.T) {
	dom := mustDomain(t, 0, 0, 1, 2)
	h := NewHist(dom)
	h.Set(geom.Cell{X: 0, Y: 0}, 3)
	h.Set(geom.Cell{X: 1, Y: 1}, 1)
	h.Normalize()
	if math.Abs(h.Total()-1) > 1e-12 {
		t.Fatalf("normalised total %v", h.Total())
	}
	if math.Abs(h.At(geom.Cell{X: 0, Y: 0})-0.75) > 1e-12 {
		t.Fatalf("normalised mass %v", h.At(geom.Cell{X: 0, Y: 0}))
	}
}

func TestNormalizeZeroMassBecomesUniform(t *testing.T) {
	dom := mustDomain(t, 0, 0, 1, 3)
	h := NewHist(dom).Normalize()
	for _, m := range h.Mass {
		if math.Abs(m-1.0/9) > 1e-12 {
			t.Fatalf("zero-mass normalisation produced %v", m)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	dom := mustDomain(t, 0, 0, 1, 2)
	h := NewHist(dom)
	h.Set(geom.Cell{X: 0, Y: 0}, 5)
	c := h.Clone()
	c.Set(geom.Cell{X: 0, Y: 0}, 7)
	if h.At(geom.Cell{X: 0, Y: 0}) != 5 {
		t.Fatal("clone shares storage with original")
	}
}

func TestMarginals(t *testing.T) {
	dom := mustDomain(t, 0, 0, 1, 2)
	h := NewHist(dom)
	h.Set(geom.Cell{X: 0, Y: 0}, 1)
	h.Set(geom.Cell{X: 1, Y: 0}, 2)
	h.Set(geom.Cell{X: 0, Y: 1}, 3)
	h.Set(geom.Cell{X: 1, Y: 1}, 4)
	mx := h.MarginalX()
	if mx[0] != 4 || mx[1] != 6 {
		t.Fatalf("marginal X %v", mx)
	}
}

func TestTotalVariation(t *testing.T) {
	dom := mustDomain(t, 0, 0, 1, 2)
	a := NewHist(dom)
	b := NewHist(dom)
	a.Set(geom.Cell{X: 0, Y: 0}, 1)
	b.Set(geom.Cell{X: 1, Y: 1}, 1)
	tv, err := TotalVariation(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if tv != 1 {
		t.Fatalf("disjoint TV = %v, want 1", tv)
	}
	tv, err = TotalVariation(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if tv != 0 {
		t.Fatalf("self TV = %v, want 0", tv)
	}
}

func TestTotalVariationSizeMismatch(t *testing.T) {
	a := NewHist(mustDomain(t, 0, 0, 1, 2))
	b := NewHist(mustDomain(t, 0, 0, 1, 3))
	if _, err := TotalVariation(a, b); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestRenderShape(t *testing.T) {
	dom := mustDomain(t, 0, 0, 1, 4)
	h := NewHist(dom)
	h.Set(geom.Cell{X: 0, Y: 0}, 1)
	out := h.Render()
	lines := 0
	for _, ch := range out {
		if ch == '\n' {
			lines++
		}
	}
	if lines != 4 {
		t.Fatalf("render has %d lines, want 4", lines)
	}
}

func TestQuickCellOfAlwaysInDomain(t *testing.T) {
	dom := mustDomain(t, -10, -10, 20, 13)
	f := func(xr, yr int16) bool {
		p := geom.Point{X: float64(xr) / 100, Y: float64(yr) / 100}
		return dom.Contains(dom.CellOf(p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMarginalsConserveMass(t *testing.T) {
	dom := mustDomain(t, 0, 0, 1, 5)
	r := rng.New(99)
	f := func() bool {
		h := NewHist(dom)
		for i := range h.Mass {
			h.Mass[i] = r.Float64()
		}
		total := h.Total()
		sumX := 0.0
		for _, v := range h.MarginalX() {
			sumX += v
		}
		return math.Abs(sumX-total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
