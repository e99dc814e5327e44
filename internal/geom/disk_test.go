package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDiskFootprintZeroRadius(t *testing.T) {
	fp := DiskFootprint(0)
	if len(fp) != 1 || fp[0].Off != (Cell{0, 0}) || fp[0].HighArea != 1 {
		t.Fatalf("b=0 footprint should be the single centre cell, got %+v", fp)
	}
}

func TestDiskFootprintContainsCentre(t *testing.T) {
	for _, b := range []float64{0, 0.3, 1, 2.5, 7} {
		found := false
		for _, c := range DiskFootprint(b) {
			if c.Off == (Cell{0, 0}) {
				found = true
				if c.HighArea != 1 {
					t.Fatalf("b=%v centre cell not pure high", b)
				}
			}
		}
		if !found {
			t.Fatalf("b=%v footprint missing centre cell", b)
		}
	}
}

func TestDiskFootprintSymmetry(t *testing.T) {
	for _, b := range []float64{1, 2, 3, 5, 7} {
		fp := DiskFootprint(b)
		areas := map[Cell]float64{}
		for _, c := range fp {
			areas[c.Off] = c.HighArea
		}
		for _, c := range fp {
			for _, sym := range []Cell{
				{-c.Off.X, c.Off.Y}, {c.Off.X, -c.Off.Y},
				{-c.Off.X, -c.Off.Y}, {c.Off.Y, c.Off.X},
			} {
				a, ok := areas[sym]
				if !ok {
					t.Fatalf("b=%v: cell %v in footprint but %v missing", b, c.Off, sym)
				}
				if math.Abs(a-c.HighArea) > 1e-12 {
					t.Fatalf("b=%v: asymmetric areas %v=%v vs %v=%v", b, c.Off, c.HighArea, sym, a)
				}
			}
		}
	}
}

func TestPureHighCellsHaveCentreInside(t *testing.T) {
	for _, b := range []float64{1, 2, 3.5, 6} {
		for _, c := range DiskFootprint(b) {
			d := c.Off.CenterDist(Cell{0, 0})
			if c.HighArea == 1 && c.Off != (Cell{0, 0}) && d > b+1e-12 {
				t.Fatalf("b=%v: pure-high cell %v has centre distance %v > b", b, c.Off, d)
			}
			if c.Mixed() && d <= b {
				t.Fatalf("b=%v: mixed cell %v has centre inside", b, c.Off)
			}
		}
	}
}

func TestMixedCellsIntersectCircle(t *testing.T) {
	for _, b := range []float64{2, 3, 5, 7} {
		for _, c := range DiskFootprint(b) {
			if !c.Mixed() {
				continue
			}
			min := CellRect(c.Off).minDistToOrigin()
			if min >= b {
				t.Fatalf("b=%v: mixed cell %v does not intersect circle (min dist %v)", b, c.Off, min)
			}
			if c.HighArea < 0 || c.HighArea > 1 {
				t.Fatalf("b=%v: mixed cell %v area %v out of [0,1]", b, c.Off, c.HighArea)
			}
		}
	}
}

func TestShrunkenAreaMatchesTheoremExample(t *testing.T) {
	// For b=7 the strict-quarter mixed cells are (7,1), (7,2), (7,3), (6,4)
	// (Figure 6 of the paper).
	want := map[Cell]bool{{7, 1}: true, {7, 2}: true, {7, 3}: true, {6, 4}: true}
	got := map[Cell]bool{}
	for _, c := range DiskFootprint(7) {
		if c.Mixed() && c.Off.X > c.Off.Y && c.Off.Y >= 1 {
			got[c.Off] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("strict quarter mixed cells = %v, want %v", got, want)
	}
	for c := range want {
		if !got[c] {
			t.Fatalf("missing mixed cell %v", c)
		}
	}
}

func strictQuarter(c Cell) bool { return c.X > c.Y && c.Y >= 1 }

// The closed-form counting theorems (VI.3, VI.4) use a "cell whose bottom
// border is crossed by the circle" convention, which disagrees with the
// centre-based classification of Section VI-A for a handful of boundary
// rows at some radii (e.g. b=6, row 3). The mechanisms use the direct
// rasterisation (Section VI-A convention); the closed forms are exercised
// against the paper's own worked example plus bounded-deviation and
// geometric-consistency properties.

func TestQuarterMixedCountFigure6Example(t *testing.T) {
	if got := QuarterMixedCount(7); got != 4 {
		t.Fatalf("b=7 quarter mixed count %d, want 4 (Figure 6)", got)
	}
	want := map[Cell]bool{{7, 1}: true, {7, 2}: true, {7, 3}: true, {6, 4}: true}
	got := QuarterMixedIndices(7)
	if len(got) != len(want) {
		t.Fatalf("b=7 mixed indices %v, want %v", got, want)
	}
	for _, c := range got {
		if !want[c] {
			t.Fatalf("b=7 unexpected mixed index %v", c)
		}
	}
}

func TestQuarterMixedIndicesAreBorderCells(t *testing.T) {
	// Every closed-form index must be a cell actually touched by the
	// circle boundary: min corner distance < b ≤ max corner distance.
	for b := 1; b <= 40; b++ {
		for _, c := range QuarterMixedIndices(b) {
			if !strictQuarter(c) {
				t.Fatalf("b=%d: index %v outside the strict quarter", b, c)
			}
			r := CellRect(c)
			if r.minDistToOrigin() >= float64(b) || r.maxDistToOrigin() < float64(b) {
				t.Fatalf("b=%d: index %v not crossed by the circle (min %v, max %v)",
					b, c, r.minDistToOrigin(), r.maxDistToOrigin())
			}
		}
	}
}

func TestQuarterMixedCountNearEnumeration(t *testing.T) {
	for b := 1; b <= 40; b++ {
		count := 0
		for _, c := range DiskFootprint(float64(b)) {
			if c.Mixed() && strictQuarter(c.Off) {
				count++
			}
		}
		cf := QuarterMixedCount(b)
		slack := 1 + b/5
		if cf < count-slack || cf > count+slack {
			t.Fatalf("b=%d: closed form %d too far from enumeration %d", b, cf, count)
		}
	}
}

func TestQuarterPureHighCountFigure6Example(t *testing.T) {
	if got := QuarterPureHighCount(7); got != 13 {
		t.Fatalf("b=7 quarter pure-high count %d, want 13 (Figure 6)", got)
	}
}

func TestQuarterPureHighCountNearEnumeration(t *testing.T) {
	for b := 1; b <= 40; b++ {
		count := 0
		for _, c := range DiskFootprint(float64(b)) {
			if !c.Mixed() && strictQuarter(c.Off) {
				count++
			}
		}
		cf := QuarterPureHighCount(b)
		slack := 1 + b/5
		if cf < count-slack || cf > count+slack {
			t.Fatalf("b=%d: closed form %d too far from enumeration %d", b, cf, count)
		}
	}
}

func TestDiagonalShrunkenAreaMatchesGeneral(t *testing.T) {
	for b := 1; b <= 40; b++ {
		// Find the diagonal border cell (k+1, k+1) if it is mixed.
		var got float64 = -1
		for _, c := range DiskFootprint(float64(b)) {
			if c.Off.X == c.Off.Y && c.Off.X > 0 && c.Mixed() {
				got = c.HighArea
			}
		}
		want := DiagonalShrunkenArea(b)
		if got < 0 {
			// No mixed diagonal cell: the closed form must report a full
			// cell (the border cell is pure high, area folded as 1).
			if want != 1 {
				t.Fatalf("b=%d: no mixed diagonal cell but closed form %v", b, want)
			}
			continue
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("b=%d: diagonal area %v, closed form %v", b, got, want)
		}
	}
}

func TestShrunkenAreaDecreasesOutward(t *testing.T) {
	// Cells further outside the circle along the same ray shrink more.
	b := 6.0
	inner := ShrunkenArea(b, 6, 2)
	outer := ShrunkenArea(b, 9, 3)
	if outer >= inner {
		t.Fatalf("outward cell should have smaller shrunken area: inner=%v outer=%v", inner, outer)
	}
}

func TestDiskFootprintNSOnlyWholeCells(t *testing.T) {
	for _, b := range []float64{1, 2, 3, 5} {
		fpNS := DiskFootprintNS(b)
		for _, c := range fpNS {
			if c.HighArea != 1 {
				t.Fatalf("b=%v: NS footprint has fractional cell %+v", b, c)
			}
			if d := c.Off.CenterDist(Cell{0, 0}); d > b && c.Off != (Cell{0, 0}) {
				t.Fatalf("b=%v: NS cell %v centre outside", b, c.Off)
			}
		}
		// NS footprint must be a subset of the shrunken footprint.
		full := map[Cell]bool{}
		for _, c := range DiskFootprint(b) {
			full[c.Off] = true
		}
		for _, c := range fpNS {
			if !full[c.Off] {
				t.Fatalf("b=%v: NS cell %v not in shrunken footprint", b, c.Off)
			}
		}
	}
}

func TestHighAreaBetweenInscribedAndCircumscribed(t *testing.T) {
	// The footprint's high area approximates the disk area πb²; for the
	// shrunken construction it must stay within the square bounds
	// (2b+1)² ≥ S_H and at least the inscribed square.
	for b := 1; b <= 20; b++ {
		s := HighArea(DiskFootprint(float64(b)))
		disk := math.Pi * float64(b) * float64(b)
		if s < disk*0.8 || s > disk*1.9 {
			t.Fatalf("b=%d: high area %v implausible vs πb²=%v", b, s, disk)
		}
	}
}

func TestHighAreaApproachesDiskArea(t *testing.T) {
	// Relative error of the rasterised area against πb² shrinks with b.
	errAt := func(b float64) float64 {
		return math.Abs(HighArea(DiskFootprint(b))-math.Pi*b*b) / (math.Pi * b * b)
	}
	if errAt(30) > errAt(3) {
		t.Fatalf("rasterisation error did not shrink: e(3)=%v e(30)=%v", errAt(3), errAt(30))
	}
	if errAt(30) > 0.05 {
		t.Fatalf("rasterisation error at b=30 too large: %v", errAt(30))
	}
}

func TestQuickShrunkenAreaInUnitRange(t *testing.T) {
	f := func(bRaw, xRaw, yRaw uint8) bool {
		b := float64(bRaw%50) + 1
		x := int(xRaw % 60)
		y := int(yRaw % 60)
		a := ShrunkenArea(b, x, y)
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCellGeometryBasics(t *testing.T) {
	c := Cell{3, -2}
	r := CellRect(c)
	if r.Area() != 1 {
		t.Fatalf("cell area %v", r.Area())
	}
	if !r.Contains(Point{3, -2}) {
		t.Fatal("cell rect does not contain its centre")
	}
	if got := (Cell{1, 1}).Add(Cell{2, 3}); got != (Cell{3, 4}) {
		t.Fatalf("Add: %v", got)
	}
	if got := (Cell{3, 4}).Sub(Cell{1, 1}); got != (Cell{2, 3}) {
		t.Fatalf("Sub: %v", got)
	}
	if d := (Cell{0, 0}).CenterDist(Cell{3, 4}); d != 5 {
		t.Fatalf("CenterDist: %v", d)
	}
}

func TestPointDist(t *testing.T) {
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Fatalf("Dist: %v", d)
	}
}

func TestRectDistancesToOrigin(t *testing.T) {
	r := Rect{MinX: 2, MinY: 3, MaxX: 4, MaxY: 5}
	if got := r.minDistToOrigin(); math.Abs(got-math.Hypot(2, 3)) > 1e-12 {
		t.Fatalf("min dist %v", got)
	}
	if got := r.maxDistToOrigin(); math.Abs(got-math.Hypot(4, 5)) > 1e-12 {
		t.Fatalf("max dist %v", got)
	}
	origin := Rect{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1}
	if got := origin.minDistToOrigin(); got != 0 {
		t.Fatalf("min dist for containing rect %v", got)
	}
}
