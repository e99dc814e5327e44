// Package experiments reproduces the evaluation of Section VII and the
// appendices: one runner per figure and table, each returning the same
// series the paper plots so the harness (cmd/damctl, bench_test.go) can
// print paper-shaped output.
//
// Conventions mirroring the paper's setup:
//
//   - the real datasets are evaluated per part (A/B/C squares) and the
//     mean W₂ across parts is reported;
//   - SEM-Geo-I's budget ε' is calibrated so its Local Privacy equals
//     DAM's at the same settings (Section VII-B), with results cached per
//     (d, ε);
//   - W₂ is computed exactly via the transportation LP for small grids and
//     with Sinkhorn for large ones, exactly as the paper switches methods.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"

	"dpspatial/internal/geom"
	"dpspatial/internal/grid"
	"dpspatial/internal/mdsw"
	"dpspatial/internal/rng"
	"dpspatial/internal/sam"
	"dpspatial/internal/semgeoi"
	"dpspatial/internal/synth"
	"dpspatial/internal/trajectory"
	"dpspatial/internal/transport"
)

// Estimator is the common collect-and-estimate contract every compared
// mechanism satisfies.
type Estimator interface {
	Name() string
	EstimateHist(truth *grid.Hist2D, r *rng.RNG) (*grid.Hist2D, error)
}

// Config controls workload sizes and measurement fidelity.
type Config struct {
	// Scale multiplies the paper's dataset sizes (1.0 = full size).
	Scale synth.Scale
	// Repeats averages each measurement over this many runs (paper: 10).
	Repeats int
	// Seed drives all randomness deterministically.
	Seed uint64
	// MaxPoints caps the number of users per dataset part (0 = no cap).
	// Mechanism comparisons are insensitive to the cap beyond sampling
	// noise; it bounds harness runtime.
	MaxPoints int
	// LPCalibration enables Local-Privacy calibration of SEM-Geo-I's ε'
	// against DAM (Section VII-B). When disabled, ε' = ε directly.
	LPCalibration bool
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.Repeats < 1 {
		c.Repeats = 1
	}
	if c.Seed == 0 {
		c.Seed = 2025
	}
	return c
}

// Series is one plotted line: a label and aligned X/Y points.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is a reproduced figure panel.
type Figure struct {
	Name   string // e.g. "fig9a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Table is a reproduced table.
type Table struct {
	Name   string
	Title  string
	Header []string
	Rows   [][]string
}

// Format renders a figure as aligned text, one row per X value.
func (f *Figure) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", f.Name, f.Title)
	fmt.Fprintf(&sb, "%-10s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&sb, "%14s", s.Label)
	}
	sb.WriteByte('\n')
	if len(f.Series) == 0 {
		return sb.String()
	}
	for i := range f.Series[0].X {
		fmt.Fprintf(&sb, "%-10.4g", f.Series[0].X[i])
		for _, s := range f.Series {
			if i < len(s.Y) {
				fmt.Fprintf(&sb, "%14.4f", s.Y[i])
			} else {
				fmt.Fprintf(&sb, "%14s", "-")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Format renders a table as aligned text.
func (t *Table) Format() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.Name, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// Metric selects the W₂ computation method.
type Metric int

const (
	// MetricExact solves the transportation LP (Equation 17).
	MetricExact Metric = iota
	// MetricSinkhorn uses entropy-regularised approximation (Cuturi).
	MetricSinkhorn
	// MetricSinkhornDebiased subtracts the entropic self-transport floor
	// (Sinkhorn divergence) — used where convergence towards zero is the
	// claim under test (the large-ε panels).
	MetricSinkhornDebiased
)

// W2 measures the 2-Wasserstein distance between normalised histograms
// with the selected method.
func (c Config) W2(a, b *grid.Hist2D, m Metric) (float64, error) {
	switch m {
	case MetricExact:
		return transport.W2Exact(a, b)
	case MetricSinkhorn, MetricSinkhornDebiased:
		return transport.W2Sinkhorn(a, b, &transport.SinkhornOptions{Debias: m == MetricSinkhornDebiased})
	default:
		return 0, fmt.Errorf("experiments: unknown metric %d", m)
	}
}

// Suite carries lazily generated datasets and owns the bounded worker
// pool every runner fans its trials out over.
type Suite struct {
	cfg  Config
	pool *pool

	mu       sync.Mutex            // guards the lazy caches below
	datasets map[string][]partData // name -> parts

	trajCache  []trajectory.Trajectory // Appendix-D workload (lazy)
	trajPoints []geom.Point
}

type partData struct {
	name   string
	points []geom.Point
}

// NewSuite builds a suite with the given configuration. Its trials run
// on GOMAXPROCS workers; per-trial RNG streams derive from the trial's
// identity, not its worker, so results are byte-identical for any
// GOMAXPROCS.
func NewSuite(cfg Config) *Suite {
	cfg = cfg.withDefaults()
	return &Suite{
		cfg:      cfg,
		pool:     newPool(runtime.GOMAXPROCS(0)),
		datasets: map[string][]partData{},
	}
}

// Config returns the suite's effective configuration.
func (s *Suite) Config() Config { return s.cfg }

// DatasetNames lists the five evaluation datasets in paper order.
func DatasetNames() []string {
	return []string{"Crime", "NYC", "Normal", "SZipf", "MNormal"}
}

// MechanismNames lists the compared mechanisms in the paper's legend
// order.
func MechanismNames() []string {
	return []string{"SEM-Geo-I", "MDSW", "HUEM", "DAM-NS", "DAM"}
}

// parts returns (and caches) the dataset's parts. Generation runs under
// the cache lock: each dataset is generated exactly once, from an RNG
// stream derived from its name, so the result is independent of which
// trial asks first.
func (s *Suite) parts(name string) ([]partData, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.datasets[name]; ok {
		return p, nil
	}
	r := rng.New(s.cfg.Seed ^ hashName(name))
	ds, err := synth.Generate(name, r, s.cfg.Scale)
	if err != nil {
		return nil, err
	}
	parts := []partData{{name: "all", points: ds.Points}}
	if len(ds.Parts) > 0 {
		parts = splitParts(ds)
	}
	if s.cfg.MaxPoints > 0 {
		for i := range parts {
			if len(parts[i].points) > s.cfg.MaxPoints {
				// Deterministic thinning preserves the distribution.
				stride := float64(len(parts[i].points)) / float64(s.cfg.MaxPoints)
				thinned := make([]geom.Point, 0, s.cfg.MaxPoints)
				for k := 0; k < s.cfg.MaxPoints; k++ {
					thinned = append(thinned, parts[i].points[int(float64(k)*stride)])
				}
				parts[i].points = thinned
			}
		}
	}
	s.datasets[name] = parts
	return parts, nil
}

func splitParts(ds *synth.Dataset) []partData {
	parts := make([]partData, 0, len(ds.Parts))
	for _, p := range ds.Parts {
		parts = append(parts, partData{name: p.Name, points: ds.Extract(p)})
	}
	return parts
}

// truthHist buckets one part into a d×d histogram over its own square
// bounds (the paper estimates each part on its own domain).
func (p partData) truthHist(d int) (*grid.Hist2D, error) {
	if len(p.points) == 0 {
		return nil, fmt.Errorf("experiments: part %s has no points", p.name)
	}
	minX, minY := p.points[0].X, p.points[0].Y
	maxX, maxY := minX, minY
	for _, pt := range p.points[1:] {
		minX = math.Min(minX, pt.X)
		minY = math.Min(minY, pt.Y)
		maxX = math.Max(maxX, pt.X)
		maxY = math.Max(maxY, pt.Y)
	}
	side := math.Max(maxX-minX, maxY-minY)
	if side == 0 {
		side = 1
	}
	dom, err := grid.NewDomain(minX, minY, side, d)
	if err != nil {
		return nil, err
	}
	h := grid.NewHist(dom)
	g := dom.CellSize()
	for _, pt := range p.points {
		x := clampIdx(int((pt.X-minX)/g), d)
		y := clampIdx(int((pt.Y-minY)/g), d)
		h.Mass[y*d+x]++
	}
	return h, nil
}

func clampIdx(v, d int) int {
	if v < 0 {
		return 0
	}
	if v >= d {
		return d - 1
	}
	return v
}

// semEpsilon returns SEM-Geo-I's budget for the given grid and ε,
// LP-calibrated against DAM when enabled (memoized by
// semgeoi.CalibrateToDAM).
func (s *Suite) semEpsilon(d int, eps float64) (float64, error) {
	if !s.cfg.LPCalibration {
		return eps, nil
	}
	return semgeoi.CalibrateToDAM(d, eps)
}

// buildMechanism constructs one of the five compared estimators for the
// given domain and budget.
func (s *Suite) buildMechanism(name string, dom grid.Domain, eps float64) (Estimator, error) {
	switch name {
	case "DAM":
		return sam.NewDAM(dom, eps)
	case "DAM-NS":
		return sam.NewDAMNS(dom, eps)
	case "HUEM":
		return sam.NewHUEM(dom, eps)
	case "MDSW":
		return mdsw.NewMDSW(dom, eps)
	case "SEM-Geo-I":
		epsPrime, err := s.semEpsilon(dom.D, eps)
		if err != nil {
			return nil, err
		}
		return semgeoi.New(dom, epsPrime)
	default:
		return nil, fmt.Errorf("experiments: unknown mechanism %q", name)
	}
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
