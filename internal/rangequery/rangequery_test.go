package rangequery

import (
	"math"
	"testing"
	"testing/quick"

	"dpspatial/internal/baselines"
	"dpspatial/internal/geom"
	"dpspatial/internal/grid"
	"dpspatial/internal/rng"
	"dpspatial/internal/sam"
)

func testDomain(t *testing.T, d int) grid.Domain {
	t.Helper()
	dom, err := grid.NewDomain(0, 0, float64(d), d)
	if err != nil {
		t.Fatal(err)
	}
	return dom
}

func randomHist(t *testing.T, d int, seed uint64) *grid.Hist2D {
	t.Helper()
	h := grid.NewHist(testDomain(t, d))
	r := rng.New(seed)
	for i := range h.Mass {
		h.Mass[i] = float64(r.Intn(100))
	}
	return h
}

func TestQueryValidate(t *testing.T) {
	good := Query{X0: 0, Y0: 0, X1: 2, Y1: 2}
	if err := good.Validate(3); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Query{
		{X0: -1, Y0: 0, X1: 1, Y1: 1},
		{X0: 0, Y0: 0, X1: 3, Y1: 1},
		{X0: 2, Y0: 0, X1: 1, Y1: 1},
		{X0: 0, Y0: 2, X1: 1, Y1: 1},
	} {
		if err := bad.Validate(3); err == nil {
			t.Fatalf("query %+v accepted", bad)
		}
	}
	if good.Area() != 9 {
		t.Fatalf("area %d", good.Area())
	}
}

func TestAnswerSums(t *testing.T) {
	h := grid.NewHist(testDomain(t, 3))
	for i := range h.Mass {
		h.Mass[i] = float64(i)
	}
	got, err := Answer(h, Query{X0: 0, Y0: 0, X1: 2, Y1: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != 36 {
		t.Fatalf("full-domain answer %v, want 36", got)
	}
	got, err = Answer(h, Query{X0: 1, Y0: 1, X1: 2, Y1: 2})
	if err != nil {
		t.Fatal(err)
	}
	// cells (1,1)=4, (2,1)=5, (1,2)=7, (2,2)=8
	if got != 24 {
		t.Fatalf("sub-range answer %v, want 24", got)
	}
}

func TestQuadtreeInvariants(t *testing.T) {
	for _, d := range []int{1, 2, 3, 5, 8, 13} {
		h := randomHist(t, d, uint64(d))
		tree := BuildQuadtree(h)
		if err := tree.Validate(1e-9); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if math.Abs(tree.Root.Value-h.Total()) > 1e-9 {
			t.Fatalf("d=%d: root %v, total %v", d, tree.Root.Value, h.Total())
		}
		leaves := tree.Leaves()
		if len(leaves) != d*d {
			t.Fatalf("d=%d: %d leaves", d, len(leaves))
		}
	}
}

func TestFrontierPartitionsGrid(t *testing.T) {
	for _, d := range []int{3, 5, 8} {
		h := randomHist(t, d, uint64(100+d))
		tree := BuildQuadtree(h)
		for l := 1; l < tree.Levels; l++ {
			covered := make([]int, d*d)
			for _, n := range tree.Frontier(l) {
				for y := n.Y0; y <= n.Y1; y++ {
					for x := n.X0; x <= n.X1; x++ {
						covered[y*d+x]++
					}
				}
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("d=%d level %d: cell %d covered %d times", d, l, i, c)
				}
			}
		}
	}
}

func TestQuadtreeQueryMatchesDirectAnswer(t *testing.T) {
	for _, d := range []int{3, 6, 9} {
		h := randomHist(t, d, uint64(7*d))
		tree := BuildQuadtree(h)
		r := rng.New(uint64(d))
		qs, err := RandomWorkload(d, 50, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			want, err := Answer(h, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tree.QueryValue(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("d=%d query %+v: tree %v, direct %v", d, q, got, want)
			}
		}
	}
}

func TestCoverIsMinimalForFullDomain(t *testing.T) {
	h := randomHist(t, 8, 1)
	tree := BuildQuadtree(h)
	nodes, err := tree.Cover(Query{X0: 0, Y0: 0, X1: 7, Y1: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || nodes[0] != tree.Root {
		t.Fatalf("full-domain cover has %d nodes", len(nodes))
	}
}

func TestRandomWorkloadBounds(t *testing.T) {
	r := rng.New(5)
	qs, err := RandomWorkload(10, 200, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 200 {
		t.Fatalf("got %d queries", len(qs))
	}
	for _, q := range qs {
		if err := q.Validate(10); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RandomWorkload(0, 1, r); err == nil {
		t.Fatal("d=0 accepted")
	}
	if _, err := RandomWorkload(5, 0, r); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestMSEZeroForIdentical(t *testing.T) {
	h := randomHist(t, 5, 9)
	r := rng.New(11)
	qs, err := RandomWorkload(5, 20, r)
	if err != nil {
		t.Fatal(err)
	}
	mse, err := MSE(h, h, qs)
	if err != nil {
		t.Fatal(err)
	}
	if mse != 0 {
		t.Fatalf("self MSE %v", mse)
	}
	if _, err := MSE(h, h, nil); err == nil {
		t.Fatal("empty workload accepted")
	}
}

func TestAHEADTreeConsistentAndNormalised(t *testing.T) {
	dom := testDomain(t, 6)
	a, err := NewAHEAD(dom, 2)
	if err != nil {
		t.Fatal(err)
	}
	truth := grid.NewHist(dom)
	truth.Set(geom.Cell{X: 1, Y: 1}, 4000)
	truth.Set(geom.Cell{X: 4, Y: 4}, 6000)
	tree, leaves, err := a.EstimateTree(truth, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	// Consistency: parents equal children sums after the top-down pass.
	if err := tree.Validate(1e-6); err != nil {
		t.Fatal(err)
	}
	// Root is the public user count.
	if math.Abs(tree.Root.Value-10000) > 1e-6 {
		t.Fatalf("root %v, want 10000", tree.Root.Value)
	}
	if leaves.Total() <= 0 {
		t.Fatal("leaf histogram empty")
	}
}

func TestAHEADRecoversWithLargeBudget(t *testing.T) {
	dom := testDomain(t, 4)
	a, err := NewAHEAD(dom, 6)
	if err != nil {
		t.Fatal(err)
	}
	truth := grid.NewHist(dom)
	truth.Set(geom.Cell{X: 0, Y: 0}, 30000)
	truth.Set(geom.Cell{X: 3, Y: 3}, 10000)
	est, err := a.EstimateHist(truth, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	want := truth.Clone().Normalize()
	tv, err := grid.TotalVariation(est, want)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 0.15 {
		t.Fatalf("high-budget AHEAD recovery TV %v", tv)
	}
}

// TestAHEADSingleCellGrid: a one-cell grid has a one-level hierarchy
// that no user can report into, so construction refuses it, as CFO's
// does, instead of building a mechanism whose every report fails.
func TestAHEADSingleCellGrid(t *testing.T) {
	_, err := NewAHEAD(testDomain(t, 1), 1)
	if err == nil || err.Error() != "rangequery: AHEAD needs at least 2 cells" {
		t.Fatalf("d=1: error %v, want the two-cell refusal", err)
	}
	if _, err := NewAHEAD(testDomain(t, 2), 1); err != nil {
		t.Fatalf("d=2: %v", err)
	}
}

func TestAHEADErrors(t *testing.T) {
	dom := testDomain(t, 4)
	if _, err := NewAHEAD(dom, 0); err == nil {
		t.Fatal("eps=0 accepted")
	}
	a, err := NewAHEAD(dom, 1)
	if err != nil {
		t.Fatal(err)
	}
	other := grid.NewHist(testDomain(t, 5))
	if _, _, err := a.EstimateTree(other, rng.New(1)); err == nil {
		t.Fatal("domain mismatch accepted")
	}
	empty := grid.NewHist(dom)
	if _, _, err := a.EstimateTree(empty, rng.New(1)); err == nil {
		t.Fatal("zero users accepted")
	}
	bad := grid.NewHist(dom)
	bad.Mass[0] = -3
	if _, _, err := a.EstimateTree(bad, rng.New(1)); err == nil {
		t.Fatal("negative count accepted")
	}
}

func TestHierarchyBeatsFlatCFOOnLargeRanges(t *testing.T) {
	// The reason hierarchies exist: on large-selectivity queries the
	// quadtree answers through a few high-level nodes while the flat
	// oracle sums hundreds of noisy cells. Compare range MSE, in count
	// units, on large queries.
	dom := testDomain(t, 8)
	truth := grid.NewHist(dom)
	r := rng.New(19)
	for i := range truth.Mass {
		truth.Mass[i] = float64(50 + r.Intn(200))
	}

	a, err := NewAHEAD(dom, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	tree, _, err := a.EstimateTree(truth, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}

	cfo, err := baselines.NewCFO(dom, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	cfoEst, err := cfo.EstimateHist(truth, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	// Scale the CFO's normalised estimate back to counts.
	total := truth.Total()
	for i := range cfoEst.Mass {
		cfoEst.Mass[i] *= total
	}

	// Large queries: at least half the domain.
	queries := []Query{
		{X0: 0, Y0: 0, X1: 7, Y1: 3},
		{X0: 0, Y0: 0, X1: 3, Y1: 7},
		{X0: 2, Y0: 2, X1: 7, Y1: 7},
		{X0: 0, Y0: 2, X1: 7, Y1: 7},
	}
	var mseTree, mseCFO float64
	for _, q := range queries {
		want, err := Answer(truth, q)
		if err != nil {
			t.Fatal(err)
		}
		gotTree, err := tree.QueryValue(q)
		if err != nil {
			t.Fatal(err)
		}
		gotCFO, err := Answer(cfoEst, q)
		if err != nil {
			t.Fatal(err)
		}
		mseTree += (want - gotTree) * (want - gotTree)
		mseCFO += (want - gotCFO) * (want - gotCFO)
	}
	if mseTree >= mseCFO {
		t.Fatalf("hierarchy MSE %v not below flat CFO %v", mseTree, mseCFO)
	}
}

func TestQuickCoverAlwaysExactPartition(t *testing.T) {
	h := randomHist(t, 7, 31)
	tree := BuildQuadtree(h)
	f := func(a, b, c, d uint8) bool {
		x0, x1 := int(a%7), int(b%7)
		y0, y1 := int(c%7), int(d%7)
		if x0 > x1 {
			x0, x1 = x1, x0
		}
		if y0 > y1 {
			y0, y1 = y1, y0
		}
		q := Query{X0: x0, Y0: y0, X1: x1, Y1: y1}
		nodes, err := tree.Cover(q)
		if err != nil {
			return false
		}
		// Union of nodes covers each query cell exactly once.
		seen := map[[2]int]int{}
		for _, n := range nodes {
			for y := n.Y0; y <= n.Y1; y++ {
				for x := n.X0; x <= n.X1; x++ {
					seen[[2]int{x, y}]++
				}
			}
		}
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				if seen[[2]int{x, y}] != 1 {
					return false
				}
				delete(seen, [2]int{x, y})
			}
		}
		return len(seen) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDAMEstimateAnswersRangeQueries(t *testing.T) {
	// Integration: the paper's composition claim — run DAM, answer range
	// queries over its estimate, verify the error is bounded and better
	// than uniform guessing.
	dom := testDomain(t, 8)
	truth := grid.NewHist(dom)
	truth.Set(geom.Cell{X: 1, Y: 1}, 20000)
	truth.Set(geom.Cell{X: 6, Y: 6}, 20000)
	m, err := sam.NewDAM(dom, 4)
	if err != nil {
		t.Fatal(err)
	}
	est, err := m.EstimateHist(truth, rng.New(37))
	if err != nil {
		t.Fatal(err)
	}
	normTruth := truth.Clone().Normalize()
	r := rng.New(41)
	qs, err := RandomWorkload(8, 100, r)
	if err != nil {
		t.Fatal(err)
	}
	mseDAM, err := MSE(normTruth, est, qs)
	if err != nil {
		t.Fatal(err)
	}
	uniform := grid.NewHist(dom).Normalize()
	mseUniform, err := MSE(normTruth, uniform, qs)
	if err != nil {
		t.Fatal(err)
	}
	if mseDAM >= mseUniform {
		t.Fatalf("DAM range MSE %v not below uniform baseline %v", mseDAM, mseUniform)
	}
}
