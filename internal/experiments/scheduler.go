package experiments

import (
	"fmt"
	"sort"
	"sync"

	"dpspatial/internal/grid"
	"dpspatial/internal/rng"
)

// This file is the suite's trial scheduler: every figure, table and
// ablation decomposes its work into cells (one mechanism at one setting)
// and trials (one (part, repeat) measurement inside a cell), and both
// layers fan out over one bounded worker pool shared by the whole suite.
//
// Reproducibility contract: each trial derives its RNG stream from the
// trial's identity — (seed, part index, repeat, mechanism hash) — never
// from the worker that happens to execute it, and every reduction runs
// in deterministic trial order. Suite output is therefore byte-identical
// for a fixed seed regardless of the worker count, and identical to the
// sequential evaluation order the harness used before parallelisation.

// pool bounds concurrent trial execution suite-wide.
type pool struct {
	sem chan struct{}
}

func newPool(workers int) *pool {
	return &pool{sem: make(chan struct{}, workers)}
}

// run executes jobs 0..n-1 under the pool's concurrency bound and returns
// the lowest-index error, if any. Jobs write their results into
// caller-owned slots indexed by job, so output ordering — including
// floating-point reduction order — is independent of scheduling. Jobs
// must not call run themselves; the suite fans work out in flat phases
// instead of nesting (a job blocking on child jobs while holding a worker
// slot would deadlock a full pool).
func (p *pool) run(n int, job func(i int) error) error {
	if n == 0 {
		return nil
	}
	if cap(p.sem) == 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			p.sem <- struct{}{}
			defer func() { <-p.sem }()
			errs[i] = job(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runTrialPhases is the generic two-phase fan-out: phase 1 builds one
// plan per cell (plan(i) returns the cell's trial count), phase 2 runs
// every (cell, trial) pair, both under the suite's pool. It returns each
// cell's trial results in deterministic (cell, trial) order. Neither
// callback may fan out further — nesting would deadlock the pool.
func (s *Suite) runTrialPhases(cells int, plan func(i int) (int, error), trial func(i, j int) (float64, error)) ([][]float64, error) {
	counts := make([]int, cells)
	if err := s.pool.run(cells, func(i int) error {
		n, err := plan(i)
		counts[i] = n
		return err
	}); err != nil {
		return nil, err
	}
	offsets := make([]int, cells+1)
	for i, n := range counts {
		offsets[i+1] = offsets[i] + n
	}
	flat := make([]float64, offsets[cells])
	if err := s.pool.run(len(flat), func(t int) error {
		ci := sort.SearchInts(offsets[1:], t+1)
		v, err := trial(ci, t-offsets[ci])
		flat[t] = v
		return err
	}); err != nil {
		return nil, err
	}
	out := make([][]float64, cells)
	for i := range out {
		out[i] = flat[offsets[i]:offsets[i+1]:offsets[i+1]]
	}
	return out, nil
}

// evalCell is one (mechanism × setting) measurement: the mean W₂ over
// the dataset's parts and the configured repeats.
type evalCell struct {
	dataset string
	d       int
	metric  Metric
	label   string // optional error-context prefix
	build   func(dom grid.Domain) (Estimator, error)
	seedAt  func(pi, rep int) uint64
}

func (c evalCell) errf(err error) error {
	if err == nil || c.label == "" {
		return err
	}
	return fmt.Errorf("%s: %w", c.label, err)
}

// cellPlan is an evalCell with its per-part inputs materialised.
type cellPlan struct {
	cell   evalCell
	truths []*grid.Hist2D
	norms  []*grid.Hist2D
	mechs  []Estimator
}

func (s *Suite) planCell(c evalCell) (*cellPlan, error) {
	parts, err := s.parts(c.dataset)
	if err != nil {
		return nil, c.errf(err)
	}
	p := &cellPlan{cell: c}
	for _, part := range parts {
		truth, err := part.truthHist(c.d)
		if err != nil {
			return nil, c.errf(err)
		}
		mech, err := c.build(truth.Dom)
		if err != nil {
			return nil, c.errf(err)
		}
		p.truths = append(p.truths, truth)
		p.norms = append(p.norms, truth.Clone().Normalize())
		p.mechs = append(p.mechs, mech)
	}
	return p, nil
}

// trial runs the cell's j-th (part, repeat) measurement. Mechanisms are
// shared across a cell's trials — they are read-only after construction.
func (s *Suite) cellTrial(p *cellPlan, j int) (float64, error) {
	pi, rep := j/s.cfg.Repeats, j%s.cfg.Repeats
	r := rng.New(p.cell.seedAt(pi, rep))
	est, err := p.mechs[pi].EstimateHist(p.truths[pi], r)
	if err != nil {
		return 0, p.cell.errf(err)
	}
	w2, err := s.cfg.W2(p.norms[pi], est, p.cell.metric)
	return w2, p.cell.errf(err)
}

// runCells evaluates every cell on the suite's pool and returns their
// mean W₂ values in cell order, identical for any worker count.
func (s *Suite) runCells(cells []evalCell) ([]float64, error) {
	plans := make([]*cellPlan, len(cells))
	results, err := s.runTrialPhases(len(cells),
		func(i int) (int, error) {
			p, err := s.planCell(cells[i])
			if err != nil {
				return 0, err
			}
			plans[i] = p
			return len(p.truths) * s.cfg.Repeats, nil
		},
		func(i, j int) (float64, error) {
			return s.cellTrial(plans[i], j)
		})
	if err != nil {
		return nil, err
	}
	means := make([]float64, len(cells))
	for i, vs := range results {
		means[i] = mean(vs)
	}
	return means, nil
}

// mechCell is the standard comparison cell: one named mechanism at (d,
// eps), with the per-trial seed derivation the sequential harness used —
// kept verbatim so figures reproduce the pre-parallelisation output.
func (s *Suite) mechCell(mechName, dataset string, d int, eps float64, metric Metric) evalCell {
	return evalCell{
		dataset: dataset,
		d:       d,
		metric:  metric,
		build: func(dom grid.Domain) (Estimator, error) {
			return s.buildMechanism(mechName, dom, eps)
		},
		seedAt: func(pi, rep int) uint64 {
			return s.cfg.Seed + uint64(rep)*1000003 + uint64(pi)*7919 ^ hashName(mechName+dataset)
		},
	}
}

func mean(vs []float64) float64 {
	total := 0.0
	for _, v := range vs {
		total += v
	}
	return total / float64(len(vs))
}
