package rangequery

import "dpspatial/internal/grid"

// Node is one quadtree region with an aggregated value.
type Node struct {
	X0, Y0, X1, Y1 int // inclusive cell bounds
	Value          float64
	Children       []*Node // nil for leaves
	Level          int     // 0 = root
}

func (n *Node) isLeaf() bool { return len(n.Children) == 0 }

func (n *Node) contains(q Query) bool {
	return q.X0 <= n.X0 && n.X1 <= q.X1 && q.Y0 <= n.Y0 && n.Y1 <= q.Y1
}

func (n *Node) overlaps(q Query) bool {
	return n.X0 <= q.X1 && q.X0 <= n.X1 && n.Y0 <= q.Y1 && q.Y0 <= n.Y1
}

// Quadtree is a hierarchical decomposition of a d×d grid: each internal
// node splits its rectangle into up to four halves until single cells
// remain. Arbitrary d is supported via floor/ceil splits.
type Quadtree struct {
	Root   *Node
	D      int
	Levels int
}

// BuildQuadtree aggregates a histogram into a quadtree whose leaf values
// are cell masses and whose internal values are exact subtree sums.
func BuildQuadtree(h *grid.Hist2D) *Quadtree {
	d := h.Dom.D
	t := &Quadtree{D: d}
	t.Root = t.build(h, 0, 0, d-1, d-1, 0)
	return t
}

func (t *Quadtree) build(h *grid.Hist2D, x0, y0, x1, y1, level int) *Node {
	if level+1 > t.Levels {
		t.Levels = level + 1
	}
	n := &Node{X0: x0, Y0: y0, X1: x1, Y1: y1, Level: level}
	if x0 == x1 && y0 == y1 {
		n.Value = h.Mass[y0*t.D+x0]
		return n
	}
	mx := (x0 + x1) / 2
	my := (y0 + y1) / 2
	type span struct{ a, b int }
	xs := []span{{x0, mx}}
	if mx+1 <= x1 {
		xs = append(xs, span{mx + 1, x1})
	}
	ys := []span{{y0, my}}
	if my+1 <= y1 {
		ys = append(ys, span{my + 1, y1})
	}
	for _, sy := range ys {
		for _, sx := range xs {
			child := t.build(h, sx.a, sy.a, sx.b, sy.b, level+1)
			n.Children = append(n.Children, child)
			n.Value += child.Value
		}
	}
	return n
}

// Cover returns the minimal set of maximal nodes whose union is exactly
// the query rectangle — the HIO-style range decomposition.
func (t *Quadtree) Cover(q Query) ([]*Node, error) {
	if err := q.Validate(t.D); err != nil {
		return nil, err
	}
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if !n.overlaps(q) {
			return
		}
		if n.contains(q) || n.isLeaf() {
			out = append(out, n)
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return out, nil
}

// QueryValue answers a range query by summing the covering nodes' values
// — identical to Answer on the source histogram for an exact tree, and
// the decomposition the AHEAD estimator answers through.
func (t *Quadtree) QueryValue(q Query) (float64, error) {
	nodes, err := t.Cover(q)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, n := range nodes {
		total += n.Value
	}
	return total, nil
}

// Frontier returns the depth-ℓ frontier: nodes at level ℓ plus leaves
// that bottomed out above ℓ. The frontiers partition the grid exactly at
// every depth, which is what the hierarchical estimators report over.
func (t *Quadtree) Frontier(level int) []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Level == level || (n.isLeaf() && n.Level < level) {
			out = append(out, n)
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return out
}

// Leaves returns every leaf (single-cell) node.
func (t *Quadtree) Leaves() []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.isLeaf() {
			out = append(out, n)
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return out
}
