package dpspatial

import (
	"fmt"

	"dpspatial/internal/collector"
	"dpspatial/internal/em"
	"dpspatial/internal/fleet"
	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
)

// This file surfaces the three-stage report lifecycle — client,
// aggregator, estimator — that every mechanism's EstimateHist is built
// on. The stages can run in separate processes: a device encodes one
// Report, any number of aggregation shards Add reports and Merge with
// each other (associative and commutative, so grouping and order don't
// matter), and the estimator decodes the merged Aggregate.

// Report is one user's client-side LDP report — the compact artifact a
// device ships to the aggregation service. Each report satisfies the
// mechanism's local privacy guarantee on its own.
type Report = fo.Report

// Aggregate is a mergeable, serializable accumulation of reports: the
// server side of the lifecycle. Use Add for single reports, Merge to
// combine shards, and MarshalBinary / encoding/json for transport.
type Aggregate = fo.Aggregate

// Reporter is the client layer: Scheme identifies the report format,
// NumInputs / ReportShape describe the domains, and Report encodes one
// user's input cell index into an LDP report.
type Reporter = fo.Reporter

// ReportingMechanism is a Mechanism that exposes the full report
// lifecycle. Every mechanism this package constructs implements it.
type ReportingMechanism interface {
	Mechanism
	Reporter
	// NewAggregate allocates an empty aggregate for this mechanism's
	// reports.
	NewAggregate() *Aggregate
	// EstimateFromAggregate decodes an accumulated aggregate (one shard
	// or a merge of many) into the estimated spatial distribution.
	EstimateFromAggregate(agg *Aggregate) (*Histogram, error)
}

// AsReporting exposes a mechanism's report lifecycle, or an error if the
// mechanism does not support per-report collection.
func AsReporting(m Mechanism) (ReportingMechanism, error) {
	rm, ok := m.(ReportingMechanism)
	if !ok {
		return nil, fmt.Errorf("dpspatial: %T does not expose the report lifecycle", m)
	}
	return rm, nil
}

// NewAggregateFor allocates an empty aggregate for the mechanism's
// reports — shorthand for AsReporting + NewAggregate.
func NewAggregateFor(m Mechanism) (*Aggregate, error) {
	rm, err := AsReporting(m)
	if err != nil {
		return nil, err
	}
	return rm.NewAggregate(), nil
}

// EstimateFromAggregate decodes an accumulated aggregate with the
// mechanism's estimator — shorthand for AsReporting +
// EstimateFromAggregate.
func EstimateFromAggregate(m Mechanism, agg *Aggregate) (*Histogram, error) {
	rm, err := AsReporting(m)
	if err != nil {
		return nil, err
	}
	return rm.EstimateFromAggregate(agg)
}

// EstimateStats reports how an EM decode terminated: the number of
// iterations executed, the final L1 change, and whether the tolerance
// was reached. Incremental pipelines monitor Iterations to see the
// warm-start saving.
type EstimateStats = em.Stats

// EstimateFromAggregateWarm decodes an accumulated aggregate starting EM
// from a previous estimate instead of from scratch — the incremental
// path for streaming pipelines that re-estimate as shards keep merging.
// A nil init is a cold start. Warm-starting from the estimate of the
// pre-merge aggregate converges in measurably fewer iterations than a
// cold start while reaching the same fixed point. Supported by the
// DAM-family mechanisms.
func EstimateFromAggregateWarm(m Mechanism, agg *Aggregate, init *Histogram) (*Histogram, EstimateStats, error) {
	type warmStarter interface {
		EstimateFromAggregateWarm(agg *fo.Aggregate, init *grid.Hist2D) (*grid.Hist2D, em.Stats, error)
	}
	ws, ok := m.(warmStarter)
	if !ok {
		return nil, EstimateStats{}, fmt.Errorf("dpspatial: %T does not support warm-started estimation", m)
	}
	return ws.EstimateFromAggregateWarm(agg, init)
}

// AccumulateHist reports every user of a true count histogram through
// the mechanism's client layer into agg, sequentially on r's stream —
// the in-process stand-in for a fleet of devices reporting to one shard.
func AccumulateHist(m Mechanism, agg *Aggregate, truth *Histogram, r *Rand) error {
	rm, err := AsReporting(m)
	if err != nil {
		return err
	}
	if truth.Dom.NumCells() != rm.NumInputs() {
		return fmt.Errorf("dpspatial: histogram has %d cells, mechanism expects %d",
			truth.Dom.NumCells(), rm.NumInputs())
	}
	return fo.Accumulate(rm, agg, truth.Mass, r)
}

// --- Collector service client ---
//
// internal/collector wraps the aggregator and estimator stages in a
// long-running HTTP daemon (`damctl serve`): shards POST reports and
// DPA-encoded aggregates, the daemon merges them associatively and keeps
// a current estimate via warm-started EM on a merge cadence. These
// aliases are the client side of that service.

// CollectorClient submits report and aggregate shards to a collector
// daemon over HTTP and fetches the merged estimate, aggregate and stats.
type CollectorClient = collector.Client

// NewCollectorClient returns a client for the collector daemon at
// baseURL (e.g. "http://127.0.0.1:8080").
func NewCollectorClient(baseURL string) *CollectorClient {
	return collector.NewClient(baseURL)
}

// CollectorStats are the counters GET /v1/stats serves: shards merged,
// decodes run, the EM iterations saved by warm-started refreshes, and —
// on a collector running with a durable data directory — the
// snapshot/WAL durability block (records replayed at recovery, snapshot
// age, recovery duration).
type CollectorStats = collector.Stats

// CollectorPipeline is the pipeline metadata a collector needs to adopt
// a mechanism from a submission: mechanism name, grid, budget and report
// scheme — the same header line the CLI report/aggregate files carry.
type CollectorPipeline = collector.Pipeline

// NewCollectorPipeline describes the named mechanism's report pipeline
// over the domain — the metadata a client attaches to shard submissions
// so a collector started without a mechanism can adopt one, and the pin
// a collector built around a pre-built mechanism requires — and
// returns the mechanism it describes, so callers that go on to report
// or serve with it need not rebuild it. SEM-Geo-I records its
// calibrated Geo-I budget so the collector rebuilds without re-running
// the calibration bisection.
func NewCollectorPipeline(mechName string, dom Domain, eps float64) (*CollectorPipeline, ReportingMechanism, error) {
	p := &CollectorPipeline{
		Mech: mechName,
		D:    dom.D,
		Eps:  eps,
		Domain: collector.DomainSpec{
			MinX: dom.MinX, MinY: dom.MinY, Side: dom.Side,
		},
	}
	if mechName == "SEM-Geo-I" {
		// Memoized, so NewMechanism's own calibration below reuses it.
		epsGeo, err := CalibrateSEMGeoI(dom, eps)
		if err != nil {
			return nil, nil, err
		}
		p.EpsGeo = epsGeo
	}
	m, err := NewMechanism(mechName, dom, eps)
	if err != nil {
		return nil, nil, err
	}
	rm, err := AsReporting(m)
	if err != nil {
		return nil, nil, err
	}
	p.Scheme = rm.Scheme()
	p.Shape = rm.ReportShape()
	return p, rm, nil
}

// NewMechanismFromPipeline rebuilds the estimator a pipeline header
// describes and verifies it agrees with the recorded report scheme —
// the adoption hook collectors and fleet supervisors run on a first
// submission. SEM-Geo-I's recorded Geo-I budget is reused, so the
// rebuild never re-runs the calibration bisection.
func NewMechanismFromPipeline(p *CollectorPipeline) (ReportingMechanism, error) {
	dom, err := p.GridDomain()
	if err != nil {
		return nil, err
	}
	var mech Mechanism
	if p.Mech == "SEM-Geo-I" && p.EpsGeo > 0 {
		mech, err = NewSEMGeoI(dom, p.EpsGeo)
	} else {
		mech, err = NewMechanism(p.Mech, dom, p.Eps)
	}
	if err != nil {
		return nil, err
	}
	rm, err := AsReporting(mech)
	if err != nil {
		return nil, err
	}
	if rm.Scheme() != p.Scheme {
		return nil, fmt.Errorf("dpspatial: rebuilt mechanism scheme %q does not match pipeline scheme %q", rm.Scheme(), p.Scheme)
	}
	return rm, nil
}

// --- Fleet supervisor ---
//
// internal/fleet is the tier above the collector service: a supervisor
// daemon (`damctl supervise`) fronting N collectors, routing submissions
// across the fleet and serving the estimate decoded from the
// hierarchical merge of every member's aggregate. It speaks the
// collector wire protocol, so CollectorClient (and `damctl submit` /
// `estimate --from-url`) point at a supervisor transparently.

// FleetSupervisor routes shard submissions across a fleet of collector
// daemons and serves the hierarchically merged fleet estimate. It is an
// http.Handler; call Start/Close around the serving lifetime to run the
// cadence loop, whose ticks pull and merge every member's aggregate and
// set each member's health from its answer.
type FleetSupervisor = fleet.Supervisor

// FleetStats are the counters the supervisor's GET /v1/stats serves:
// the collector's CollectorStats, embedded, plus routed submissions,
// failovers and per-member health.
type FleetStats = fleet.Stats

// FleetMemberStats is one member's entry in FleetStats.
type FleetMemberStats = fleet.MemberStats

// NewFleetPipeline builds a supervisor fronting the collectors at
// memberURLs, pre-built around the named mechanism over the domain, and
// returns the fleet-wide pinned pipeline alongside it. The supervisor
// injects the pipeline into forwarded submissions, so members may start
// bare (`damctl serve` with no --mech) and adopt on first contact. The
// fleet estimate is byte-identical to EstimateFromAggregate on the
// union of all submitted shards, for any member count and arrival
// interleaving.
func NewFleetPipeline(mechName string, dom Domain, eps float64, memberURLs []string) (*CollectorPipeline, *FleetSupervisor, error) {
	p, rm, err := NewCollectorPipeline(mechName, dom, eps)
	if err != nil {
		return nil, nil, err
	}
	sup, err := fleet.New(fleet.Config{Members: memberURLs, Mechanism: rm, Pipeline: p})
	if err != nil {
		return nil, nil, err
	}
	return p, sup, nil
}
