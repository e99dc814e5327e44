package sam

import (
	"fmt"
	"math"
	"sort"

	"dpspatial/internal/cellfo"
	"dpspatial/internal/em"
	"dpspatial/internal/fo"
	"dpspatial/internal/geom"
	"dpspatial/internal/grid"
)

// Mechanism is a discretised Spatial Area Mechanism over a d×d grid: a
// family of output distributions, one per input cell, that all share the
// same offset weight profile (the wave function W of Definition 4) and the
// same expanded output domain D̃ (the union of every input cell's disk
// footprint — the discrete analogue of the rounded square of Figure 2).
//
// It is a per-cell frequency oracle (cellfo.Oracle): Report is
// GridAreaResponse (Algorithm 2, realised by per-row alias sampling over
// the exact channel) and Estimate is PostProcess (EM, Algorithm 1).
type Mechanism struct {
	*cellfo.Oracle
	name    string
	dom     grid.Domain
	eps     float64
	bHat    int
	offsets []weightedOffset // wave profile: relative weight w ∈ [1, e^ε]
	out     []geom.Cell      // output domain D̃, deterministic order
	pHat    float64          // probability of a unit cell at weight e^ε
	qHat    float64          // probability of a unit cell at weight 1
	// linear is the exact channel as one translated footprint: every row
	// is q̂ everywhere except the wave-offset cells of its input cell. It
	// is the only representation reporting and estimation touch, so a
	// large grid never pays for — or stores — the dense d²×|D̃| matrix.
	// The Oracle holds it too; the warm decode runs on it here.
	linear *fo.Footprint
	smooth bool
}

type weightedOffset struct {
	off    geom.Cell
	weight float64 // relative to q̂; in [1, e^ε]
}

// Option configures mechanism construction.
type Option func(*config)

type config struct {
	bHat   *int
	smooth bool
}

// WithBHat overrides the discrete radius b̂ (otherwise ⌊b̌⌋ from Section
// V-C). Used by the Figure 8 radius sweep.
func WithBHat(b int) Option {
	return func(c *config) { c.bHat = &b }
}

// WithSmoothing enables 2-D EMS smoothing during post-processing.
func WithSmoothing() Option {
	return func(c *config) { c.smooth = true }
}

// NewDAM builds the discrete Disk Area Mechanism with border shrinkage
// (Section VI).
func NewDAM(dom grid.Domain, eps float64, opts ...Option) (*Mechanism, error) {
	return build("DAM", dom, eps, damWeights(true), opts...)
}

// NewDAMNS builds DAM without shrinkage: border cells are classified
// whole-cell by their centre (the DAM-NS baseline of Section VII-B).
func NewDAMNS(dom grid.Domain, eps float64, opts ...Option) (*Mechanism, error) {
	return build("DAM-NS", dom, eps, damWeights(false), opts...)
}

// NewHUEM builds the discrete Hybrid Uniform-Exponential Mechanism using
// the fan-ring decomposition of Appendix A.
func NewHUEM(dom grid.Domain, eps float64, opts ...Option) (*Mechanism, error) {
	return build("HUEM", dom, eps, huemWeights, opts...)
}

// weightsFunc maps (ε, b̂) to the offset weight profile of a SAM instance.
type weightsFunc func(eps float64, bHat int) []weightedOffset

func damWeights(shrink bool) weightsFunc {
	return func(eps float64, bHat int) []weightedOffset {
		ee := math.Exp(eps)
		var fp []geom.DiskCell
		if shrink {
			fp = geom.DiskFootprint(float64(bHat))
		} else {
			fp = geom.DiskFootprintNS(float64(bHat))
		}
		offs := make([]weightedOffset, 0, len(fp))
		for _, c := range fp {
			// A border cell reports at p̂ on its shrunken area and q̂ on
			// the rest: its aggregate weight interpolates between 1 and
			// e^ε, keeping ε-LDP (Section VI-A).
			w := c.HighArea*ee + (1 - c.HighArea)
			offs = append(offs, weightedOffset{off: c.Off, weight: w})
		}
		return offs
	}
}

// huemWeights realises Appendix A: HUEM's disk is a union of b̂ fan rings;
// ring κ (κ−1 < r ≤ κ) carries relative weight e^{ε(1−(κ−1)/b̂)}, and a
// cell split by ring borders carries the area-weighted mixture of the
// adjacent ring weights.
func huemWeights(eps float64, bHat int) []weightedOffset {
	if bHat == 0 {
		return damWeights(true)(eps, 0)
	}
	// insideArea[κ][off]: fraction of the cell inside circle of radius κ.
	type areaMap map[geom.Cell]float64
	inside := make([]areaMap, bHat+1)
	for k := 1; k <= bHat; k++ {
		inside[k] = areaMap{}
		for _, c := range geom.DiskFootprint(float64(k)) {
			inside[k][c.Off] = c.HighArea
		}
	}
	ringWeight := func(k int) float64 {
		return math.Exp(eps * (1 - float64(k-1)/float64(bHat)))
	}
	offs := make([]weightedOffset, 0, len(inside[bHat]))
	for off := range inside[bHat] {
		w := 0.0
		prev := 0.0
		for k := 1; k <= bHat; k++ {
			a := inside[k][off]
			if a > prev {
				w += (a - prev) * ringWeight(k)
				prev = a
			}
		}
		w += (1 - prev) * 1 // the part outside the disk reports at q̂
		offs = append(offs, weightedOffset{off: off, weight: w})
	}
	return offs
}

func build(name string, dom grid.Domain, eps float64, wf weightsFunc, opts ...Option) (*Mechanism, error) {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("sam: invalid epsilon %v", eps)
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	bHat := 0
	if cfg.bHat != nil {
		bHat = *cfg.bHat
		if bHat < 0 {
			return nil, fmt.Errorf("sam: negative radius %d", bHat)
		}
	} else {
		var err error
		bHat, err = BHat(eps, dom.D)
		if err != nil {
			return nil, err
		}
	}

	m := &Mechanism{name: name, dom: dom, eps: eps, bHat: bHat, smooth: cfg.smooth}
	m.offsets = wf(eps, bHat)
	sort.Slice(m.offsets, func(i, j int) bool {
		a, b := m.offsets[i].off, m.offsets[j].off
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.X < b.X
	})
	ee := math.Exp(eps)
	for _, wo := range m.offsets {
		if wo.weight < 1-1e-9 || wo.weight > ee+1e-9 {
			return nil, fmt.Errorf("sam: offset %v weight %v outside [1, e^ε]", wo.off, wo.weight)
		}
	}

	m.buildOutputDomain()
	if err := m.computeProbabilities(); err != nil {
		return nil, err
	}
	if err := m.buildChannel(); err != nil {
		return nil, err
	}
	scheme := fmt.Sprintf("sam/%s d=%d eps=%g bhat=%d", name, dom.D, eps, bHat)
	m.Oracle = cellfo.New(dom, scheme, m.linear, m.emOptions())
	return m, nil
}

// buildOutputDomain forms D̃ as the union of the footprint translated to
// every input cell — the discrete rounded square.
func (m *Mechanism) buildOutputDomain() {
	seen := map[geom.Cell]bool{}
	for y := 0; y < m.dom.D; y++ {
		for x := 0; x < m.dom.D; x++ {
			base := geom.Cell{X: x, Y: y}
			for _, wo := range m.offsets {
				seen[base.Add(wo.off)] = true
			}
		}
	}
	m.out = make([]geom.Cell, 0, len(seen))
	for c := range seen {
		m.out = append(m.out, c)
	}
	sort.Slice(m.out, func(i, j int) bool {
		if m.out[i].Y != m.out[j].Y {
			return m.out[i].Y < m.out[j].Y
		}
		return m.out[i].X < m.out[j].X
	})
}

// computeProbabilities solves for q̂ from the normalisation
// Σ_offsets w·q̂ + (|D̃| − |offsets|)·q̂ = 1, which is identical for every
// input cell because each translated footprint lies fully inside D̃.
func (m *Mechanism) computeProbabilities() error {
	weightSum := 0.0
	for _, wo := range m.offsets {
		weightSum += wo.weight
	}
	lowCells := float64(len(m.out) - len(m.offsets))
	if lowCells < 0 {
		return fmt.Errorf("sam: footprint larger than output domain")
	}
	den := weightSum + lowCells
	if den <= 0 {
		return fmt.Errorf("sam: degenerate normalisation")
	}
	m.qHat = 1 / den
	m.pHat = math.Exp(m.eps) * m.qHat
	return nil
}

// buildChannel assembles the channel as one footprint — the wave offsets
// with their probabilities w·q̂ — translated to every input cell, in
// O(d·|footprint|) memory; neither the dense matrix nor a per-row form
// is ever held.
func (m *Mechanism) buildChannel() error {
	offs := make([]geom.Cell, len(m.offsets))
	val := make([]float64, len(m.offsets))
	for k, wo := range m.offsets {
		offs[k] = wo.off
		val[k] = wo.weight * m.qHat
	}
	linear, err := fo.NewFootprint(m.dom.D, m.qHat, offs, val, m.out)
	if err != nil {
		return fmt.Errorf("sam: internal channel invalid: %w", err)
	}
	m.linear = linear
	return nil
}

// Name returns the mechanism's display name.
func (m *Mechanism) Name() string { return m.name }

// emOptions assembles the EM options of the cold and the warm decode:
// the optional 2-D smoothing.
func (m *Mechanism) emOptions() *em.Options {
	opts := &em.Options{}
	if m.smooth {
		opts.Smoothing = em.Smoother2D(m.dom.D)
	}
	return opts
}

// EstimateFromAggregateWarm decodes an aggregate starting EM from a
// previous estimate instead of uniform — the incremental path for
// streaming pipelines that re-estimate as shards keep merging. A nil
// init is a cold start. The returned stats expose the iteration count a
// streaming caller monitors; warm starts from the pre-merge estimate
// converge in far fewer iterations than cold starts.
func (m *Mechanism) EstimateFromAggregateWarm(agg *fo.Aggregate, init *grid.Hist2D) (*grid.Hist2D, em.Stats, error) {
	if err := agg.Compatible(m); err != nil {
		return nil, em.Stats{}, fmt.Errorf("sam: %w", err)
	}
	opts := m.emOptions()
	if init != nil {
		if init.Dom.D != m.dom.D {
			return nil, em.Stats{}, fmt.Errorf("sam: warm-start histogram d=%d, mechanism d=%d", init.Dom.D, m.dom.D)
		}
		opts.Init = init.Mass
	}
	est, stats, err := em.EstimateWithStats(m.linear, agg.Planes[0], opts)
	if err != nil {
		return nil, stats, err
	}
	h, err := grid.HistFromMass(m.dom, est)
	return h, stats, err
}
