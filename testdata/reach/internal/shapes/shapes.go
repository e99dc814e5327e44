package shapes

// Shape is the interface the root API calls Area through.
type Shape interface{ Area() float64 }

// Square is live: the command builds one.
type Square struct{ Side float64 }

// Label is live: the command builds one.
type Label struct{ Text string }

// Area is reached only through Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Name is reached: the command calls it.
func (l Label) Name() string { return l.Text }

// Unit is called only by another package's test.
func Unit() Square { return Square{Side: 1} }

// Name shares its name with the reached Label.Name, but nothing calls
// it: the gate must report it.
func (s Square) Name() string { return "square" }

// Perimeter is called only by this package's test: the gate must report
// it.
func Perimeter(s Square) float64 { return 4 * s.Side }
