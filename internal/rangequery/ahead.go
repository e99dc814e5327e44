package rangequery

import (
	"fmt"
	"math"

	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
	"dpspatial/internal/rng"
)

// AHEAD is an adaptive-hierarchical-decomposition estimator in the style
// of Du et al. (CCS 2021), built on the quadtree: the user population is
// split evenly across hierarchy levels, each user reports the id of their
// ancestor node at the assigned level through OUE under the full ε (user
// partitioning, not budget splitting), and the per-level estimates are
// reconciled by inverse-variance weighted averaging bottom-up followed by
// a top-down consistency adjustment (Hay-style), so every parent equals
// the sum of its children.
//
// It answers range queries through the quadtree cover, which is where the
// hierarchy beats flat frequency oracles: a large rectangle is a handful
// of high-level nodes instead of hundreds of noisy cells.
//
// Because the quadtree of a non-power-of-two grid has leaves at different
// depths, "level ℓ" means the frontier at depth ℓ: nodes at depth ℓ plus
// any leaf that bottomed out earlier. A shallow leaf can therefore
// receive estimates from several levels; they are merged by inverse-
// variance weighting.
type AHEAD struct {
	dom    grid.Domain
	eps    float64
	levels int
	// infos[ℓ] (ℓ = 1..levels-1) is the frontier assignment of level ℓ:
	// the quadtree structure depends only on d, so the per-level
	// cell→frontier-position maps and OUE oracles are fixed at
	// construction and shared by every report and decode.
	infos []levelAssign
}

// levelAssign is one hierarchy level's fixed reporting assignment.
type levelAssign struct {
	byCell []int // cell index → frontier position
	oracle *fo.OUE
}

// NewAHEAD builds the estimator. The quadtree structure, per-level
// frontiers and OUE oracles are precomputed here — they depend only on
// the grid side, never on the data. A one-cell grid has a one-level
// hierarchy, which no user can report into, so it is refused.
func NewAHEAD(dom grid.Domain, eps float64) (*AHEAD, error) {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("rangequery: invalid epsilon %v", eps)
	}
	if dom.NumCells() < 2 {
		return nil, fmt.Errorf("rangequery: AHEAD needs at least 2 cells")
	}
	a := &AHEAD{dom: dom, eps: eps}
	tmpl := BuildQuadtree(grid.NewHist(dom))
	a.levels = tmpl.Levels
	a.infos = make([]levelAssign, a.levels)
	for l := 1; l < a.levels; l++ {
		nodes := tmpl.Frontier(l)
		byCell := make([]int, dom.NumCells())
		for pos, n := range nodes {
			for y := n.Y0; y <= n.Y1; y++ {
				for x := n.X0; x <= n.X1; x++ {
					byCell[y*dom.D+x] = pos
				}
			}
		}
		oue, err := fo.NewOUE(maxInt(2, len(nodes)), eps)
		if err != nil {
			return nil, err
		}
		a.infos[l] = levelAssign{byCell: byCell, oracle: oue}
	}
	return a, nil
}

// Name returns the estimator's display name.
func (a *AHEAD) Name() string { return "AHEAD" }

// estimateEntry is one level's noisy view of a node.
type estimateEntry struct {
	value    float64
	variance float64
}

// Scheme implements fo.Reporter: the report format is fixed by the grid
// side (which determines the hierarchy) and the budget.
func (a *AHEAD) Scheme() string {
	return fmt.Sprintf("rangequery/ahead d=%d eps=%g", a.dom.D, a.eps)
}

// NumInputs implements fo.Reporter.
func (a *AHEAD) NumInputs() int { return a.dom.NumCells() }

// ReportShape implements fo.Reporter: plane 0 counts users per hierarchy
// level (levels−1 slots), and plane ℓ (ℓ ≥ 1) is level ℓ's OUE support
// vector over its frontier nodes. Each report touches plane 0 and
// exactly one support plane, so per-level user counts and supports merge
// across shards like any other aggregate.
func (a *AHEAD) ReportShape() []int {
	shape := make([]int, a.levels)
	shape[0] = a.levels - 1
	for l := 1; l < a.levels; l++ {
		shape[l] = a.infos[l].oracle.NumCategories()
	}
	return shape
}

// Report implements fo.Reporter: the user lands on a uniformly random
// hierarchy level and reports their frontier node there through OUE
// under the full ε — the identical draw stream the monolithic collect
// loop has always consumed.
func (a *AHEAD) Report(input int, r *rng.RNG) (fo.Report, error) {
	if input < 0 || input >= a.dom.NumCells() {
		return fo.Report{}, fmt.Errorf("rangequery: input cell %d outside [0, %d)", input, a.dom.NumCells())
	}
	l := 1 + r.Intn(a.levels-1)
	info := &a.infos[l]
	bits := info.oracle.PerturbBits(info.byCell[input], r)
	set := make([]int, 0, 4)
	for j, b := range bits {
		if b {
			set = append(set, j)
		}
	}
	planes := make([][]int, a.levels)
	planes[0] = []int{l - 1}
	planes[l] = set
	return fo.Report{Planes: planes}, nil
}

// NewAggregate allocates an empty aggregate for this mechanism's reports.
func (a *AHEAD) NewAggregate() *fo.Aggregate { return fo.NewAggregateFor(a) }

// EstimateTree collects the noisy hierarchy from a true count histogram
// and returns a consistent quadtree of estimated counts plus the implied
// leaf histogram (leaf values clipped at zero). It is a thin wrapper
// over the report lifecycle: accumulate every user's report into one
// aggregate, then decode it.
func (a *AHEAD) EstimateTree(truth *grid.Hist2D, r *rng.RNG) (*Quadtree, *grid.Hist2D, error) {
	if truth.Dom.D != a.dom.D {
		return nil, nil, fmt.Errorf("rangequery: histogram d=%d, estimator d=%d", truth.Dom.D, a.dom.D)
	}
	agg := a.NewAggregate()
	if err := fo.Accumulate(a, agg, truth.Mass, r); err != nil {
		return nil, nil, err
	}
	return a.EstimateTreeFromAggregate(agg)
}

// EstimateTreeFromAggregate decodes an accumulated aggregate (one shard
// or a merge of many) into a consistent quadtree of estimated counts
// plus the implied leaf histogram. Every call builds a fresh tree, so
// decodes of a shared mechanism never race on node values.
func (a *AHEAD) EstimateTreeFromAggregate(agg *fo.Aggregate) (*Quadtree, *grid.Hist2D, error) {
	if err := agg.Compatible(a); err != nil {
		return nil, nil, fmt.Errorf("rangequery: %w", err)
	}
	totalUsers := agg.N
	if totalUsers == 0 {
		return nil, nil, fmt.Errorf("rangequery: no users")
	}
	tree := BuildQuadtree(grid.NewHist(a.dom)) // structure; values written below
	levels := a.levels

	// The decode walks the fresh tree's nodes; Frontier order is
	// deterministic, so fresh frontier position pos is the template
	// frontier position the supports were counted over.
	frontiers := make([][]*Node, levels)
	for l := 1; l < levels; l++ {
		frontiers[l] = tree.Frontier(l)
	}

	// Per-level unbiased estimates (count units) with OUE variance
	// 4e^ε/(n_ℓ(e^ε−1)²) per frequency, appended to each node's list.
	entries := map[*Node][]estimateEntry{}
	ee := math.Exp(a.eps)
	for l := 1; l < levels; l++ {
		info := &a.infos[l]
		users := agg.Planes[0][l-1]
		if users == 0 {
			continue
		}
		freqs, err := info.oracle.EstimateBits(agg.Planes[l], users)
		if err != nil {
			return nil, nil, err
		}
		varCount := 4 * ee / (users * (ee - 1) * (ee - 1)) * totalUsers * totalUsers
		for pos, n := range frontiers[l] {
			entries[n] = append(entries[n], estimateEntry{
				value:    freqs[pos] * totalUsers,
				variance: varCount,
			})
		}
	}

	// Bottom-up: each node's own entries merge by inverse variance, then
	// combine with the children's reconciled sum.
	est := map[*Node]float64{}
	variance := map[*Node]float64{}
	var up func(n *Node) (float64, float64)
	up = func(n *Node) (float64, float64) {
		own, ownVar := mergeEntries(entries[n])
		if n.isLeaf() {
			if math.IsInf(ownVar, 1) {
				// No level saw this leaf (possible only when every user
				// missed its levels): fall back to zero with huge
				// variance so siblings dominate.
				own = 0
			}
			est[n], variance[n] = own, ownVar
			return own, ownVar
		}
		var childSum, childVar float64
		for _, c := range n.Children {
			v, cv := up(c)
			childSum += v
			childVar += cv
		}
		val, vr := combineTwo(own, ownVar, childSum, childVar)
		est[n], variance[n] = val, vr
		return val, vr
	}
	up(tree.Root)
	est[tree.Root] = totalUsers // the population size is public

	// Top-down consistency: distribute parent-child mismatch evenly.
	var down func(n *Node)
	down = func(n *Node) {
		if n.isLeaf() {
			return
		}
		childSum := 0.0
		for _, c := range n.Children {
			childSum += est[c]
		}
		adj := (est[n] - childSum) / float64(len(n.Children))
		for _, c := range n.Children {
			est[c] += adj
			down(c)
		}
	}
	down(tree.Root)

	var write func(n *Node)
	write = func(n *Node) {
		n.Value = est[n]
		for _, c := range n.Children {
			write(c)
		}
	}
	write(tree.Root)

	leafHist := grid.NewHist(a.dom)
	for _, n := range tree.Leaves() {
		v := est[n]
		if v < 0 {
			v = 0
		}
		for y := n.Y0; y <= n.Y1; y++ {
			for x := n.X0; x <= n.X1; x++ {
				leafHist.Mass[y*a.dom.D+x] = v
			}
		}
	}
	return tree, leafHist, nil
}

// mergeEntries inverse-variance averages a node's per-level estimates;
// an empty list yields (0, +Inf).
func mergeEntries(es []estimateEntry) (float64, float64) {
	if len(es) == 0 {
		return 0, math.Inf(1)
	}
	wSum, acc := 0.0, 0.0
	for _, e := range es {
		if e.variance <= 0 {
			return e.value, 0
		}
		w := 1 / e.variance
		wSum += w
		acc += w * e.value
	}
	return acc / wSum, 1 / wSum
}

// combineTwo inverse-variance combines two estimates, tolerating infinite
// variances (missing information).
func combineTwo(a, av, b, bv float64) (float64, float64) {
	switch {
	case math.IsInf(av, 1) && math.IsInf(bv, 1):
		return (a + b) / 2, av
	case math.IsInf(av, 1):
		return b, bv
	case math.IsInf(bv, 1):
		return a, av
	case av == 0:
		return a, 0
	case bv == 0:
		return b, 0
	default:
		wa, wb := 1/av, 1/bv
		return (wa*a + wb*b) / (wa + wb), 1 / (wa + wb)
	}
}

// EstimateFromAggregate decodes an accumulated aggregate into the
// normalised leaf histogram — the estimator stage of the report
// lifecycle.
func (a *AHEAD) EstimateFromAggregate(agg *fo.Aggregate) (*grid.Hist2D, error) {
	_, leaves, err := a.EstimateTreeFromAggregate(agg)
	if err != nil {
		return nil, err
	}
	return leaves.Normalize(), nil
}

// EstimateHist satisfies the harness Estimator contract: it returns the
// normalised leaf histogram.
func (a *AHEAD) EstimateHist(truth *grid.Hist2D, r *rng.RNG) (*grid.Hist2D, error) {
	_, leaves, err := a.EstimateTree(truth, r)
	if err != nil {
		return nil, err
	}
	return leaves.Normalize(), nil
}
