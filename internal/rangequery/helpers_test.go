package rangequery

import "fmt"

// Test-only accessors and checks: the package's tests use them to inspect
// live code, and no product code calls them.

// Validate checks the parent-sum invariant within tol.
func (t *Quadtree) Validate(tol float64) error {
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n.isLeaf() {
			return nil
		}
		sum := 0.0
		for _, c := range n.Children {
			sum += c.Value
		}
		if diff := sum - n.Value; diff > tol || diff < -tol {
			return fmt.Errorf("rangequery: node [%d,%d]x[%d,%d] value %v != children sum %v",
				n.X0, n.X1, n.Y0, n.Y1, n.Value, sum)
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.Root)
}
