package experiments

import (
	"fmt"
	"math"

	"dpspatial/internal/geom"
	"dpspatial/internal/grid"
	"dpspatial/internal/rng"
	"dpspatial/internal/sam"
	"dpspatial/internal/trajectory"
)

// Paper parameter grids (Table IV).
var (
	// SmallDValues drives Figure 9(a–e).
	SmallDValues = []int{1, 2, 3, 4, 5}
	// LargeDValues drives Figure 9(f–j) and Figure 13(b).
	LargeDValues = []int{1, 5, 10, 15, 20}
	// SmallEpsValues drives Figure 9(k–o).
	SmallEpsValues = []float64{0.7, 1.4, 2.1, 2.8, 3.5}
	// LargeEpsValues drives Figure 9(p–t).
	LargeEpsValues = []float64{5, 6, 7, 8, 9}
	// RadiusMultipliers drives Figure 8.
	RadiusMultipliers = []float64{0.33, 0.67, 1.0, 1.33, 1.67}
	// DefaultD and DefaultEps are Table IV's defaults.
	DefaultD   = 15
	DefaultEps = 3.5
)

// Fig8 reproduces Figure 8: W₂ of DAM as the radius b sweeps multiples of
// the optimal b̌, at d=15 and ε=3.5, one series per dataset. All
// (dataset × multiplier) cells evaluate concurrently on the suite's pool.
func (s *Suite) Fig8() (*Figure, error) {
	fig := &Figure{
		Name:   "fig8",
		Title:  "Wasserstein distances with b varied (DAM, d=15, eps=3.5)",
		XLabel: "b/b̌",
		YLabel: "W2",
	}
	bOpt, err := sam.OptimalB(DefaultEps, float64(DefaultD))
	if err != nil {
		return nil, err
	}
	datasets := DatasetNames()
	var cells []evalCell
	for _, dataset := range datasets {
		for _, mult := range RadiusMultipliers {
			cells = append(cells, s.radiusCell(dataset, DefaultD, DefaultEps, int(math.Floor(mult*bOpt))))
		}
	}
	means, err := s.runCells(cells)
	if err != nil {
		return nil, err
	}
	for di, dataset := range datasets {
		series := Series{Label: dataset}
		for mi, mult := range RadiusMultipliers {
			series.X = append(series.X, mult)
			series.Y = append(series.Y, means[di*len(RadiusMultipliers)+mi])
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// radiusCell measures DAM with an explicit b̂ (Figure 8's sweep).
func (s *Suite) radiusCell(dataset string, d int, eps float64, bHat int) evalCell {
	return evalCell{
		dataset: dataset,
		d:       d,
		metric:  MetricSinkhorn,
		label:   fmt.Sprintf("DAM(b=%d) on %s", bHat, dataset),
		build: func(dom grid.Domain) (Estimator, error) {
			return sam.NewDAM(dom, eps, sam.WithBHat(bHat))
		},
		seedAt: func(pi, rep int) uint64 {
			return s.cfg.Seed + uint64(rep)*999983 + uint64(pi)*7919 + uint64(bHat)
		},
	}
}

// sweep runs a family of mechanisms across X values for one dataset,
// with every (mechanism × x × part × repeat) trial fanned out over the
// suite's pool.
func (s *Suite) sweep(dataset string, mechs []string, xs []float64,
	dOf func(x float64) int, epsOf func(x float64) float64, metric Metric) ([]Series, error) {
	cells := make([]evalCell, 0, len(mechs)*len(xs))
	for _, mech := range mechs {
		for _, x := range xs {
			c := s.mechCell(mech, dataset, dOf(x), epsOf(x), metric)
			c.label = fmt.Sprintf("%s on %s at x=%v", mech, dataset, x)
			cells = append(cells, c)
		}
	}
	means, err := s.runCells(cells)
	if err != nil {
		return nil, err
	}
	out := make([]Series, 0, len(mechs))
	for mi, mech := range mechs {
		series := Series{Label: mech}
		for xi, x := range xs {
			series.X = append(series.X, x)
			series.Y = append(series.Y, means[mi*len(xs)+xi])
		}
		out = append(out, series)
	}
	return out, nil
}

func panelLetter(figBase string, dataset string, offset int) string {
	idx := 0
	for i, n := range DatasetNames() {
		if n == dataset {
			idx = i
		}
	}
	return fmt.Sprintf("%s%c", figBase, 'a'+offset+idx)
}

// Fig9SmallD reproduces Figure 9(a–e): all five mechanisms, d ∈ 1..5,
// ε=3.5, exact W₂ via LP.
func (s *Suite) Fig9SmallD(dataset string) (*Figure, error) {
	xs := intsToFloats(SmallDValues)
	series, err := s.sweep(dataset, MechanismNames(), xs,
		func(x float64) int { return int(x) },
		func(x float64) float64 { return DefaultEps },
		MetricExact)
	if err != nil {
		return nil, err
	}
	return &Figure{
		Name:   panelLetter("fig9", dataset, 0),
		Title:  fmt.Sprintf("W2 vs small d on %s (eps=3.5, exact LP)", dataset),
		XLabel: "d", YLabel: "W2", Series: series,
	}, nil
}

// Fig9LargeD reproduces Figure 9(f–j): SEM-Geo-I vs DAM at larger d,
// ε=5, Sinkhorn W₂.
func (s *Suite) Fig9LargeD(dataset string) (*Figure, error) {
	xs := intsToFloats(LargeDValues)
	series, err := s.sweep(dataset, []string{"SEM-Geo-I", "DAM"}, xs,
		func(x float64) int { return int(x) },
		func(x float64) float64 { return 5 },
		MetricSinkhorn)
	if err != nil {
		return nil, err
	}
	return &Figure{
		Name:   panelLetter("fig9", dataset, 5),
		Title:  fmt.Sprintf("W2 vs large d on %s (eps=5, Sinkhorn)", dataset),
		XLabel: "d", YLabel: "W2", Series: series,
	}, nil
}

// Fig9SmallEps reproduces Figure 9(k–o): all five mechanisms, ε ∈
// 0.7..3.5 at d=15.
func (s *Suite) Fig9SmallEps(dataset string) (*Figure, error) {
	series, err := s.sweep(dataset, MechanismNames(), SmallEpsValues,
		func(x float64) int { return DefaultD },
		func(x float64) float64 { return x },
		MetricSinkhorn)
	if err != nil {
		return nil, err
	}
	return &Figure{
		Name:   panelLetter("fig9", dataset, 10),
		Title:  fmt.Sprintf("W2 vs small eps on %s (d=15)", dataset),
		XLabel: "eps", YLabel: "W2", Series: series,
	}, nil
}

// Fig9LargeEps reproduces Figure 9(p–t): SEM-Geo-I vs DAM, ε ∈ 5..9 at
// d=15, Sinkhorn.
func (s *Suite) Fig9LargeEps(dataset string) (*Figure, error) {
	series, err := s.sweep(dataset, []string{"SEM-Geo-I", "DAM"}, LargeEpsValues,
		func(x float64) int { return DefaultD },
		func(x float64) float64 { return x },
		MetricSinkhornDebiased)
	if err != nil {
		return nil, err
	}
	return &Figure{
		Name:   panelLetter("fig9", dataset, 15),
		Title:  fmt.Sprintf("W2 vs large eps on %s (d=15, Sinkhorn)", dataset),
		XLabel: "eps", YLabel: "W2", Series: series,
	}, nil
}

// Fig13 reproduces the full-domain Crime panels of Appendix C: the same
// four sweeps evaluated on the whole Crime domain instead of per part.
func (s *Suite) Fig13(panel string) (*Figure, error) {
	name, err := s.ensureFullCrime()
	if err != nil {
		return nil, err
	}
	switch panel {
	case "a":
		xs := intsToFloats(SmallDValues)
		series, err := s.sweep(name, MechanismNames(), xs,
			func(x float64) int { return int(x) },
			func(x float64) float64 { return DefaultEps }, MetricExact)
		if err != nil {
			return nil, err
		}
		return &Figure{Name: "fig13a", Title: "Full-domain Crime: W2 vs small d",
			XLabel: "d", YLabel: "W2", Series: series}, nil
	case "b":
		xs := intsToFloats(LargeDValues)
		series, err := s.sweep(name, []string{"SEM-Geo-I", "DAM"}, xs,
			func(x float64) int { return int(x) },
			func(x float64) float64 { return 5 }, MetricSinkhorn)
		if err != nil {
			return nil, err
		}
		return &Figure{Name: "fig13b", Title: "Full-domain Crime: W2 vs large d",
			XLabel: "d", YLabel: "W2", Series: series}, nil
	case "c":
		series, err := s.sweep(name, MechanismNames(), SmallEpsValues,
			func(x float64) int { return DefaultD },
			func(x float64) float64 { return x }, MetricSinkhorn)
		if err != nil {
			return nil, err
		}
		return &Figure{Name: "fig13c", Title: "Full-domain Crime: W2 vs small eps",
			XLabel: "eps", YLabel: "W2", Series: series}, nil
	case "d":
		series, err := s.sweep(name, []string{"SEM-Geo-I", "DAM"}, LargeEpsValues,
			func(x float64) int { return DefaultD },
			func(x float64) float64 { return x }, MetricSinkhornDebiased)
		if err != nil {
			return nil, err
		}
		return &Figure{Name: "fig13d", Title: "Full-domain Crime: W2 vs large eps",
			XLabel: "eps", YLabel: "W2", Series: series}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown fig13 panel %q", panel)
	}
}

// ensureFullCrime registers (once, under the cache lock) the
// concatenation of every Crime part as the dedicated dataset "CrimeFull":
// the full domain the Appendix-C panels evaluate.
func (s *Suite) ensureFullCrime() (string, error) {
	const name = "CrimeFull"
	parts, err := s.parts("Crime")
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.datasets[name]; !ok {
		var all partData
		all.name = "full"
		for _, p := range parts {
			all.points = append(all.points, p.points...)
		}
		s.datasets[name] = []partData{all}
	}
	return name, nil
}

// Trajectory experiment parameters (Table V).
var (
	// TrajectoryDValues drives Figure 14(a).
	TrajectoryDValues = []int{1, 5, 10, 15, 20}
	// TrajectoryEpsValues drives Figure 14(b).
	TrajectoryEpsValues = []float64{0.5, 1.0, 1.5, 2.0, 2.5}
	// TrajectoryDefaultD and TrajectoryDefaultEps are the defaults.
	TrajectoryDefaultD   = 15
	TrajectoryDefaultEps = 1.5
)

// trajWorkload builds (and caches) the Appendix-D trajectory workload on
// the NYC-like dataset. Generation is deterministic (its stream derives
// from the seed alone), so concurrent first callers would store identical
// values; runners still pre-warm it once to avoid duplicated work.
func (s *Suite) trajWorkload() ([]trajectory.Trajectory, []geom.Point, error) {
	s.mu.Lock()
	if s.trajCache != nil {
		trajs, pts := s.trajCache, s.trajPoints
		s.mu.Unlock()
		return trajs, pts, nil
	}
	s.mu.Unlock()
	parts, err := s.parts("NYC")
	if err != nil {
		return nil, nil, err
	}
	var pts []geom.Point
	for _, p := range parts {
		pts = append(pts, p.points...)
	}
	cfg := trajectory.WorkloadConfig{
		// The paper samples on a 300×300 grid; scale the resolution with
		// the thinned dataset so cells stay dense enough to walk.
		GridD:   trajGridD(len(pts)),
		NumTraj: 1000,
		MinLen:  2,
		MaxLen:  200,
	}
	trajs, err := trajectory.Generate(pts, cfg, rng.New(s.cfg.Seed^0x72616a))
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	s.trajCache = trajs
	s.trajPoints = pts
	s.mu.Unlock()
	return trajs, pts, nil
}

// trajGridD picks a sampling-grid resolution with ≈2 points per occupied
// cell at the configured dataset scale, capped at the paper's 300.
func trajGridD(numPoints int) int {
	d := int(math.Sqrt(float64(numPoints) / 2))
	if d < 10 {
		d = 10
	}
	if d > 300 {
		d = 300
	}
	return d
}

// trajPlan is one trajectory cell's materialised inputs: the cached
// workload bucketed on the cell's sampling domain.
type trajPlan struct {
	mech  string
	eps   float64
	dom   grid.Domain
	trajs []trajectory.Trajectory
	truth *grid.Hist2D
}

func (s *Suite) planTrajectory(mech string, d int, eps float64) (*trajPlan, error) {
	switch mech {
	case "LDPTrace", "PivotTrace", "DAM":
	default:
		return nil, fmt.Errorf("experiments: unknown trajectory mechanism %q", mech)
	}
	trajs, pts, err := s.trajWorkload()
	if err != nil {
		return nil, err
	}
	dom, err := grid.SquareDomain(pts, d)
	if err != nil {
		return nil, err
	}
	return &trajPlan{
		mech:  mech,
		eps:   eps,
		dom:   dom,
		trajs: trajs,
		truth: trajectory.PointHist(dom, trajs).Normalize(),
	}, nil
}

// trajTrial runs one repeat of the seven-step protocol of Appendix D.
func (s *Suite) trajTrial(p *trajPlan, rep int) (float64, error) {
	r := rng.New(s.cfg.Seed + uint64(rep)*104729 ^ hashName(p.mech))
	var rec []trajectory.Trajectory
	switch p.mech {
	case "LDPTrace":
		l, err := trajectory.NewLDPTrace(p.dom, p.eps, 200)
		if err != nil {
			return 0, err
		}
		if rec, err = l.Synthesize(p.trajs, r); err != nil {
			return 0, err
		}
	case "PivotTrace":
		pt, err := trajectory.NewPivotTrace(p.dom, p.eps, 4)
		if err != nil {
			return 0, err
		}
		if rec, err = pt.Reconstruct(p.trajs, r); err != nil {
			return 0, err
		}
	case "DAM":
		// DAM treats every trajectory point as an independent user
		// report (the paper's point-statistics transformation).
		m, err := sam.NewDAM(p.dom, p.eps)
		if err != nil {
			return 0, err
		}
		est, err := m.EstimateHist(trajectory.PointHist(p.dom, p.trajs), r)
		if err != nil {
			return 0, err
		}
		return s.cfg.W2(p.truth, est, MetricSinkhorn)
	}
	est := trajectory.PointHist(p.dom, rec).Normalize()
	return s.cfg.W2(p.truth, est, MetricSinkhorn)
}

// runTrajectoryCells evaluates trajectory cells (mechanism at d, eps) on
// the suite's pool and returns their mean W₂ values in cell order.
func (s *Suite) runTrajectoryCells(mechs []string, ds []int, epss []float64) ([]float64, error) {
	// Pre-warm the shared workload once so concurrent plans hit the cache.
	if _, _, err := s.trajWorkload(); err != nil {
		return nil, err
	}
	plans := make([]*trajPlan, len(mechs))
	results, err := s.runTrialPhases(len(mechs),
		func(i int) (int, error) {
			p, err := s.planTrajectory(mechs[i], ds[i], epss[i])
			if err != nil {
				return 0, err
			}
			plans[i] = p
			return s.cfg.Repeats, nil
		},
		func(i, rep int) (float64, error) {
			return s.trajTrial(plans[i], rep)
		})
	if err != nil {
		return nil, err
	}
	means := make([]float64, len(results))
	for i, vs := range results {
		means[i] = mean(vs)
	}
	return means, nil
}

// TrajectoryMechanismNames lists the Figure 14 legend.
func TrajectoryMechanismNames() []string {
	return []string{"LDPTrace", "PivotTrace", "DAM"}
}

// Fig14a reproduces Figure 14(a): trajectory W₂ vs d at ε=1.5, all
// (mechanism × d × repeat) trials fanned out over the suite's pool.
func (s *Suite) Fig14a() (*Figure, error) {
	fig := &Figure{
		Name:   "fig14a",
		Title:  "Trajectory W2 vs d on NYC (eps=1.5)",
		XLabel: "d", YLabel: "W2",
	}
	names := TrajectoryMechanismNames()
	var mechs []string
	var ds []int
	var epss []float64
	for _, mech := range names {
		for _, d := range TrajectoryDValues {
			mechs = append(mechs, mech)
			ds = append(ds, d)
			epss = append(epss, TrajectoryDefaultEps)
		}
	}
	means, err := s.runTrajectoryCells(mechs, ds, epss)
	if err != nil {
		return nil, err
	}
	for mi, mech := range names {
		series := Series{Label: mech}
		for di, d := range TrajectoryDValues {
			series.X = append(series.X, float64(d))
			series.Y = append(series.Y, means[mi*len(TrajectoryDValues)+di])
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// Fig14b reproduces Figure 14(b): trajectory W₂ vs ε at d=15.
func (s *Suite) Fig14b() (*Figure, error) {
	fig := &Figure{
		Name:   "fig14b",
		Title:  "Trajectory W2 vs eps on NYC (d=15)",
		XLabel: "eps", YLabel: "W2",
	}
	names := TrajectoryMechanismNames()
	var mechs []string
	var ds []int
	var epss []float64
	for _, mech := range names {
		for _, eps := range TrajectoryEpsValues {
			mechs = append(mechs, mech)
			ds = append(ds, TrajectoryDefaultD)
			epss = append(epss, eps)
		}
	}
	means, err := s.runTrajectoryCells(mechs, ds, epss)
	if err != nil {
		return nil, err
	}
	for mi, mech := range names {
		series := Series{Label: mech}
		for ei, eps := range TrajectoryEpsValues {
			series.X = append(series.X, eps)
			series.Y = append(series.Y, means[mi*len(TrajectoryEpsValues)+ei])
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

func intsToFloats(vs []int) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = float64(v)
	}
	return out
}
