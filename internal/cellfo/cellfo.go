// Package cellfo is the per-cell frequency oracle that DAM, DAM-NS,
// HUEM, SEM-Geo-I and planar Laplace share. A user's grid cell is
// reported as one draw from that cell's row of a channel
// (GridAreaResponse), and EM decodes the accumulated counts (PostProcess
// of Algorithm 1). The mechanisms differ only in how they build the
// channel; everything from the report to the estimate lives here.
package cellfo

import (
	"fmt"
	"math"
	"sync"

	"dpspatial/internal/em"
	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
	"dpspatial/internal/rng"
)

// Channel is a per-cell reporting channel in a structured form: the
// linear operator EM sweeps, plus per-row alias tables for reporting and
// the dense matrix for row-level inspection. fo.Footprint (DAM, DAM-NS,
// HUEM) and fo.ConvChannel (SEM-Geo-I, planar Laplace) implement it.
type Channel interface {
	fo.LinearChannel
	Samplers() ([]*rng.Alias, error)
	Dense() *fo.Channel
}

// Oracle reports and decodes one input cell per user over a d×d grid
// through one channel. It implements fo.Reporter and the estimator stage
// of the report lifecycle. All its state is built once and read-only
// afterwards, so one Oracle may serve many mechanisms and goroutines.
type Oracle struct {
	dom     grid.Domain
	scheme  string
	channel Channel
	opts    *em.Options

	denseOnce sync.Once
	dense     *fo.Channel

	samplersOnce sync.Once
	samplers     []*rng.Alias
	samplersErr  error
}

// New builds the oracle over dom. scheme names the report format; opts
// (nil for the defaults) configures every EM decode.
func New(dom grid.Domain, scheme string, ch Channel, opts *em.Options) *Oracle {
	return &Oracle{dom: dom, scheme: scheme, channel: ch, opts: opts}
}

// ExpKernel builds the convolutional channel whose row i is
// exp(−rate·dis(i, j)) over the cells j of a d×d grid, normalised (cell
// units). The kernel depends only on the cell displacement, and the
// borders change only each row's normaliser, so every row is the
// definitional row bit for bit (same kernel bits, same row-major
// summation order) while EM sweeps run in O(n log n).
func ExpKernel(d int, rate float64) (*fo.ConvChannel, error) {
	kern := fo.DisplacementKernel(d, func(dx, dy int) float64 {
		return math.Exp(-rate * math.Hypot(float64(dx), float64(dy)))
	})
	conv, err := fo.NewConvChannel(d, kern)
	if err != nil {
		return nil, err
	}
	if err := conv.Validate(); err != nil {
		return nil, err
	}
	return conv, nil
}

// Scheme implements fo.Reporter.
func (o *Oracle) Scheme() string { return o.scheme }

// NumInputs returns d².
func (o *Oracle) NumInputs() int { return o.dom.NumCells() }

// NumOutputs returns the channel's output domain size.
func (o *Oracle) NumOutputs() int { return o.channel.NumOutputs() }

// ReportShape implements fo.Reporter: one plane of output counts.
func (o *Oracle) ReportShape() []int { return []int{o.NumOutputs()} }

// Linear exposes the channel in the structured form EM runs on (shared;
// treat as read-only).
func (o *Oracle) Linear() fo.LinearChannel { return o.channel }

// Channel materialises the dense channel on first use (shared; treat as
// read-only). Reporting and estimation never need it; it exists for the
// local-privacy adversary and for row-level inspection.
func (o *Oracle) Channel() *fo.Channel {
	o.denseOnce.Do(func() { o.dense = o.channel.Dense() })
	return o.dense
}

// Samplers returns the per-input-cell alias tables, building them once
// on first use. The tables are built from rows materialised one at a
// time, so they are bit-identical to the dense channel's without holding
// the matrix. The returned slice is shared; treat it as read-only.
func (o *Oracle) Samplers() ([]*rng.Alias, error) {
	o.samplersOnce.Do(func() {
		o.samplers, o.samplersErr = o.channel.Samplers()
	})
	return o.samplers, o.samplersErr
}

// Report implements fo.Reporter: one user's output cell, drawn from the
// input cell's channel row through the cached alias samplers.
func (o *Oracle) Report(input int, r *rng.RNG) (fo.Report, error) {
	samplers, err := o.Samplers()
	if err != nil {
		return fo.Report{}, err
	}
	if input < 0 || input >= len(samplers) {
		return fo.Report{}, fmt.Errorf("cellfo: input cell %d outside [0, %d)", input, len(samplers))
	}
	return fo.SingleIndexReport(samplers[input].Draw(r)), nil
}

// NewAggregate allocates an empty aggregate for this oracle's reports.
func (o *Oracle) NewAggregate() *fo.Aggregate { return fo.NewAggregateFor(o) }

// Estimate recovers the normalised input distribution from output
// counts via EM on the structured channel.
func (o *Oracle) Estimate(counts []float64) ([]float64, error) {
	return em.Estimate(o.channel, counts, o.opts)
}

// EstimateFromAggregate decodes an accumulated aggregate (one shard or a
// merge of many) into the estimated input distribution — the estimator
// stage of the report lifecycle.
func (o *Oracle) EstimateFromAggregate(agg *fo.Aggregate) (*grid.Hist2D, error) {
	if err := agg.Compatible(o); err != nil {
		return nil, fmt.Errorf("cellfo: %w", err)
	}
	est, err := o.Estimate(agg.Planes[0])
	if err != nil {
		return nil, err
	}
	return grid.HistFromMass(o.dom, est)
}

// EstimateHist runs the full report lifecycle in-process (Algorithm 1):
// every user's report accumulates into one aggregate, then EM estimates
// from it.
func (o *Oracle) EstimateHist(truth *grid.Hist2D, r *rng.RNG) (*grid.Hist2D, error) {
	if truth.Dom.D != o.dom.D {
		return nil, fmt.Errorf("cellfo: histogram d=%d, mechanism d=%d", truth.Dom.D, o.dom.D)
	}
	agg := o.NewAggregate()
	if err := fo.Accumulate(o, agg, truth.Mass, r); err != nil {
		return nil, err
	}
	return o.EstimateFromAggregate(agg)
}
