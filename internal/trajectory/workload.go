// Package trajectory implements the Appendix-D comparison: a trajectory
// workload generator that follows the paper's seven-step protocol on a
// point dataset, plus simplified-but-faithful re-implementations of the
// two trajectory-collection baselines — LDPTrace (Du et al., VLDB 2023:
// estimate a grid mobility model under LDP, then synthesise trajectories)
// and PivotTrace (Zhang et al., VLDB 2023: perturb sampled pivot points
// and reconstruct by interpolation). Both are evaluated, as in the paper,
// by the Wasserstein distance between the point distributions of the true
// and reconstructed trajectories.
package trajectory

import (
	"fmt"

	"dpspatial/internal/geom"
	"dpspatial/internal/grid"
	"dpspatial/internal/rng"
)

// Trajectory is an ordered sequence of continuous points.
type Trajectory []geom.Point

// WorkloadConfig controls the Appendix-D trajectory sampler.
type WorkloadConfig struct {
	GridD   int // sampling grid resolution (the paper uses 300)
	NumTraj int // number of trajectories (paper: 1000)
	MinLen  int // minimum trajectory length (paper: 2)
	MaxLen  int // maximum trajectory length (paper: 200)
}

func (c WorkloadConfig) validate() error {
	if c.GridD < 2 {
		return fmt.Errorf("trajectory: grid resolution %d too small", c.GridD)
	}
	if c.NumTraj < 1 {
		return fmt.Errorf("trajectory: need at least one trajectory")
	}
	if c.MinLen < 2 || c.MaxLen < c.MinLen {
		return fmt.Errorf("trajectory: invalid length range [%d, %d]", c.MinLen, c.MaxLen)
	}
	return nil
}

// Generate samples trajectories from a point dataset following Appendix D:
// divide the domain into a GridD×GridD grid, pick start cells and lengths,
// then walk to neighbouring cells with probability proportional to their
// point counts, emitting one random point from each visited cell.
func Generate(points []geom.Point, cfg WorkloadConfig, r *rng.RNG) ([]Trajectory, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("trajectory: empty point set")
	}
	dom, err := grid.SquareDomain(points, cfg.GridD)
	if err != nil {
		return nil, err
	}
	// Map grid cell -> points within it.
	cellPoints := make(map[int][]geom.Point)
	for _, p := range points {
		idx := dom.Index(dom.CellOf(p))
		cellPoints[idx] = append(cellPoints[idx], p)
	}
	occupied := make([]int, 0, len(cellPoints))
	occWeights := make([]float64, 0, len(cellPoints))
	for idx, pts := range cellPoints {
		occupied = append(occupied, idx)
		occWeights = append(occWeights, float64(len(pts)))
	}
	// Deterministic order for reproducibility (map iteration is random).
	sortTogether(occupied, occWeights)
	startTable, err := rng.NewAlias(occWeights)
	if err != nil {
		return nil, err
	}

	trajs := make([]Trajectory, 0, cfg.NumTraj)
	for t := 0; t < cfg.NumTraj; t++ {
		length := cfg.MinLen + r.Intn(cfg.MaxLen-cfg.MinLen+1)
		cur := occupied[startTable.Draw(r)]
		traj := make(Trajectory, 0, length)
		for step := 0; step < length; step++ {
			pts := cellPoints[cur]
			traj = append(traj, pts[r.Intn(len(pts))])
			next, ok := pickNeighbour(dom, cellPoints, cur, r)
			if !ok {
				break // isolated cell: trajectory ends early
			}
			cur = next
		}
		trajs = append(trajs, traj)
	}
	return trajs, nil
}

// pickNeighbour chooses one of the 8 neighbouring cells with probability
// proportional to its point count. It reports false if no neighbour holds
// points.
func pickNeighbour(dom grid.Domain, cellPoints map[int][]geom.Point, cur int, r *rng.RNG) (int, bool) {
	c := dom.CellAt(cur)
	var cand []int
	var weights []float64
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			n := geom.Cell{X: c.X + dx, Y: c.Y + dy}
			if !dom.Contains(n) {
				continue
			}
			idx := dom.Index(n)
			if pts := cellPoints[idx]; len(pts) > 0 {
				cand = append(cand, idx)
				weights = append(weights, float64(len(pts)))
			}
		}
	}
	if len(cand) == 0 {
		return 0, false
	}
	return cand[rng.WeightedChoice(r, weights)], true
}

func sortTogether(idx []int, w []float64) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
			w[j], w[j-1] = w[j-1], w[j]
		}
	}
}

// PointHist buckets every trajectory point into a d×d histogram over the
// given domain — steps (2)/(5) of the Appendix-D protocol.
func PointHist(dom grid.Domain, trajs []Trajectory) *grid.Hist2D {
	h := grid.NewHist(dom)
	for _, tr := range trajs {
		for _, p := range tr {
			h.Mass[dom.Index(dom.CellOf(p))]++
		}
	}
	return h
}
