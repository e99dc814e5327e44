package dpspatial

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	"dpspatial/internal/collector"
)

// lifecycleMechanisms builds one mechanism per family on a small grid —
// every family, now that the baselines and range/trajectory mechanisms
// ride the same report lifecycle. SEM-Geo-I is constructed directly from
// a Geo-I budget so the tests do not pay for local-privacy calibration.
func lifecycleMechanisms(t *testing.T) (Domain, map[string]ReportingMechanism) {
	t.Helper()
	dom, err := NewDomain(0, 0, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	mechs := map[string]ReportingMechanism{}
	for name, build := range map[string]func() (Mechanism, error){
		"DAM":           func() (Mechanism, error) { return NewDAM(dom, 1.5) },
		"HUEM":          func() (Mechanism, error) { return NewHUEM(dom, 1.5) },
		"MDSW":          func() (Mechanism, error) { return NewMDSW(dom, 1.5) },
		"SEM-Geo-I":     func() (Mechanism, error) { return NewSEMGeoI(dom, 1.2) },
		"CFO":           func() (Mechanism, error) { return NewCFO(dom, 1.5) },
		"PlanarLaplace": func() (Mechanism, error) { return NewPlanarLaplace(dom, 1.2) },
		"AHEAD":         func() (Mechanism, error) { return NewAHEAD(dom, 1.5) },
		"LDPTrace":      func() (Mechanism, error) { return NewLDPTrace(dom, 1.5, LDPTraceMaxLen) },
		"PivotTrace":    func() (Mechanism, error) { return NewPivotTrace(dom, 1.5, PivotTraceMaxPivots) },
	} {
		m, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rm, err := AsReporting(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mechs[name] = rm
	}
	return dom, mechs
}

// lifecycleTruth is a small synthetic count histogram exercising empty
// and heavy cells.
func lifecycleTruth(dom Domain) *Histogram {
	truth := &Histogram{Dom: dom, Mass: make([]float64, dom.NumCells())}
	for i := range truth.Mass {
		truth.Mass[i] = float64((i * 7) % 23)
	}
	truth.Mass[0] = 0
	truth.Mass[len(truth.Mass)-1] = 120
	return truth
}

// TestAggregateMergeLaws checks, for every mechanism family, that a
// shard-split of n users aggregates to exactly the single-shard result
// under any merge grouping and order (associativity + commutativity).
func TestAggregateMergeLaws(t *testing.T) {
	dom, mechs := lifecycleMechanisms(t)
	truth := lifecycleTruth(dom)
	for name, rm := range mechs {
		t.Run(name, func(t *testing.T) {
			// One fixed report stream, split round-robin over 3 shards.
			r := NewRand(31)
			single := rm.NewAggregate()
			shards := []*Aggregate{rm.NewAggregate(), rm.NewAggregate(), rm.NewAggregate()}
			user := 0
			for i, c := range truth.Mass {
				for k := 0; k < int(c); k++ {
					rep, err := rm.Report(i, r)
					if err != nil {
						t.Fatal(err)
					}
					if err := single.Add(rep); err != nil {
						t.Fatal(err)
					}
					if err := shards[user%3].Add(rep); err != nil {
						t.Fatal(err)
					}
					user++
				}
			}

			merge := func(order ...int) *Aggregate {
				acc := shards[order[0]].Clone()
				for _, s := range order[1:] {
					if err := acc.Merge(shards[s]); err != nil {
						t.Fatal(err)
					}
				}
				return acc
			}
			leftAssoc := merge(0, 1, 2)
			commuted := merge(2, 0, 1)
			rightInner := shards[1].Clone()
			if err := rightInner.Merge(shards[2]); err != nil {
				t.Fatal(err)
			}
			rightAssoc := shards[0].Clone()
			if err := rightAssoc.Merge(rightInner); err != nil {
				t.Fatal(err)
			}

			for variant, got := range map[string]*Aggregate{
				"(s0+s1)+s2": leftAssoc,
				"s0+(s1+s2)": rightAssoc,
				"s2+s0+s1":   commuted,
			} {
				if !reflect.DeepEqual(got, single) {
					t.Fatalf("%s: sharded merge differs from single-shard aggregation", variant)
				}
			}

			// The merged aggregate must decode to the same histogram as
			// the single-shard one.
			a, err := rm.EstimateFromAggregate(leftAssoc)
			if err != nil {
				t.Fatal(err)
			}
			b, err := rm.EstimateFromAggregate(single)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Mass, b.Mass) {
				t.Fatal("merged aggregate estimates differently than single-shard aggregate")
			}
		})
	}
}

// TestAHEADShardMergeByLevel splits one AHEAD report stream into shards
// BY HIERARCHY LEVEL — each shard holds only the reports that landed on
// one level, so every shard populates a different support plane, the most
// lopsided plane mix a fleet can produce — and checks that merging the
// shards through the binary wire format still reproduces the single-shard
// aggregate and its decode bit for bit.
func TestAHEADShardMergeByLevel(t *testing.T) {
	dom, err := NewDomain(0, 0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewAHEAD(dom, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := AsReporting(m)
	if err != nil {
		t.Fatal(err)
	}
	truth := lifecycleTruth(dom)
	r := NewRand(41)
	single := rm.NewAggregate()
	byLevel := map[int]*Aggregate{}
	for i, c := range truth.Mass {
		for k := 0; k < int(c); k++ {
			rep, err := rm.Report(i, r)
			if err != nil {
				t.Fatal(err)
			}
			if err := single.Add(rep); err != nil {
				t.Fatal(err)
			}
			// Plane 0 records which hierarchy level the user landed on.
			lvl := rep.Planes[0][0]
			sh := byLevel[lvl]
			if sh == nil {
				sh = rm.NewAggregate()
				byLevel[lvl] = sh
			}
			if err := sh.Add(rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(byLevel) < 2 {
		t.Fatalf("report stream landed on %d levels, need >= 2 for a mixed-plane merge", len(byLevel))
	}

	// Merge in descending level order, round-tripping every shard through
	// the DPA binary wire format first — the path fleet members ship on.
	var merged *Aggregate
	for lvl := len(rm.ReportShape()); lvl >= 0; lvl-- {
		sh, ok := byLevel[lvl]
		if !ok {
			continue
		}
		blob, err := sh.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		wire := &Aggregate{}
		if err := wire.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		if merged == nil {
			merged = wire
			continue
		}
		if err := merged.Merge(wire); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(merged, single) {
		t.Fatal("by-level shard merge differs from single-shard aggregation")
	}
	a, err := rm.EstimateFromAggregate(merged)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rm.EstimateFromAggregate(single)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Mass, b.Mass) {
		t.Fatal("by-level merged aggregate decodes differently than the single-shard aggregate")
	}
}

// TestAggregateSerializationRoundTrip checks that every mechanism
// family's aggregate survives binary and JSON transport bit-identically.
func TestAggregateSerializationRoundTrip(t *testing.T) {
	dom, mechs := lifecycleMechanisms(t)
	truth := lifecycleTruth(dom)
	for name, rm := range mechs {
		t.Run(name, func(t *testing.T) {
			agg := rm.NewAggregate()
			if err := AccumulateHist(rm, agg, truth, NewRand(17)); err != nil {
				t.Fatal(err)
			}

			blob, err := agg.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var back Aggregate
			if err := back.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&back, agg) {
				t.Fatal("binary round-trip changed the aggregate")
			}
			blob2, err := back.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Fatal("binary encoding is not deterministic")
			}

			js, err := json.Marshal(agg)
			if err != nil {
				t.Fatal(err)
			}
			var jsBack Aggregate
			if err := json.Unmarshal(js, &jsBack); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&jsBack, agg) {
				t.Fatal("JSON round-trip changed the aggregate")
			}

			// A round-tripped aggregate still decodes.
			est, err := rm.EstimateFromAggregate(&back)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := rm.EstimateFromAggregate(agg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(est.Mass, direct.Mass) {
				t.Fatal("deserialized aggregate estimates differently")
			}
		})
	}
}

// TestLifecycleMatchesEstimateHist checks that the explicit client →
// aggregate → estimate path reproduces EstimateHist exactly for the same
// seed (the refactor's byte-compatibility guarantee).
func TestLifecycleMatchesEstimateHist(t *testing.T) {
	dom, mechs := lifecycleMechanisms(t)
	truth := lifecycleTruth(dom)
	for name, rm := range mechs {
		t.Run(name, func(t *testing.T) {
			monolithic, err := rm.EstimateHist(truth, NewRand(77))
			if err != nil {
				t.Fatal(err)
			}
			agg := rm.NewAggregate()
			if err := AccumulateHist(rm, agg, truth, NewRand(77)); err != nil {
				t.Fatal(err)
			}
			staged, err := rm.EstimateFromAggregate(agg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(monolithic.Mass, staged.Mass) {
				t.Fatal("staged lifecycle differs from EstimateHist")
			}
		})
	}
}

// TestEstimateFromAggregateRejectsForeignAggregate checks the scheme
// guard across mechanism families.
func TestEstimateFromAggregateRejectsForeignAggregate(t *testing.T) {
	dom, mechs := lifecycleMechanisms(t)
	truth := lifecycleTruth(dom)
	damAgg := mechs["DAM"].NewAggregate()
	if err := AccumulateHist(mechs["DAM"], damAgg, truth, NewRand(3)); err != nil {
		t.Fatal(err)
	}
	for _, other := range []string{"HUEM", "MDSW", "SEM-Geo-I", "CFO", "PlanarLaplace", "AHEAD", "LDPTrace", "PivotTrace"} {
		if _, err := mechs[other].EstimateFromAggregate(damAgg); err == nil {
			t.Fatalf("%s accepted a DAM aggregate", other)
		}
	}
	if _, err := EstimateFromAggregate(mechs["HUEM"], damAgg); err == nil {
		t.Fatal("package-level EstimateFromAggregate accepted a foreign aggregate")
	}
}

// TestCalibrateSEMGeoIMemoized checks that repeated calibrations return
// the identical budget (the bisection runs once per (d, ε)).
func TestCalibrateSEMGeoIMemoized(t *testing.T) {
	dom, err := NewDomain(0, 0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	first, err := CalibrateSEMGeoI(dom, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// A different domain geometry with the same grid side must hit the
	// same memo entry: the calibration depends only on (d, ε).
	shifted, err := NewDomain(-3, 7, 42, 5)
	if err != nil {
		t.Fatal(err)
	}
	second, err := CalibrateSEMGeoI(shifted, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("memoized calibration differs: %v vs %v", first, second)
	}
}

// TestEstimateFromAggregateWarmPublic exercises the public incremental
// path: estimate a first shard, merge a second, and re-estimate from the
// previous estimate in fewer iterations than from scratch.
func TestEstimateFromAggregateWarmPublic(t *testing.T) {
	dom, err := NewDomain(0, 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewDAM(dom, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	truth := &Histogram{Dom: dom, Mass: make([]float64, dom.NumCells())}
	for i := range truth.Mass {
		truth.Mass[i] = float64(30 + (i*13)%170)
	}
	r := NewRand(7)
	shard1, err := NewAggregateFor(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := AccumulateHist(m, shard1, truth, r); err != nil {
		t.Fatal(err)
	}
	est1, stats1, err := EstimateFromAggregateWarm(m, shard1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats1.Converged {
		t.Fatalf("shard-1 estimate did not converge in %d iterations", stats1.Iterations)
	}
	shard2, err := NewAggregateFor(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := AccumulateHist(m, shard2, truth, r); err != nil {
		t.Fatal(err)
	}
	merged := shard1.Clone()
	if err := merged.Merge(shard2); err != nil {
		t.Fatal(err)
	}
	_, coldStats, err := EstimateFromAggregateWarm(m, merged, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, warmStats, err := EstimateFromAggregateWarm(m, merged, est1)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.Iterations >= coldStats.Iterations {
		t.Fatalf("warm start took %d iterations, cold start took %d",
			warmStats.Iterations, coldStats.Iterations)
	}

	// Mechanisms without a warm-start estimator must say so.
	mdswMech, err := NewMDSW(dom, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := EstimateFromAggregateWarm(mdswMech, merged, nil); err == nil {
		t.Fatal("MDSW warm start should be unsupported")
	}
}

// TestCollectorClientPublic round-trips two shards through a collector
// service with the public client helpers: the fetched estimate must be
// byte-identical to the in-process EstimateFromAggregate on the merged
// shards, and the stats must count the submissions.
func TestCollectorClientPublic(t *testing.T) {
	dom, err := NewDomain(0, 0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewDAM(dom, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := AsReporting(m)
	if err != nil {
		t.Fatal(err)
	}
	truth := lifecycleTruth(dom)
	r := NewRand(17)
	shard1, shard2 := rm.NewAggregate(), rm.NewAggregate()
	if err := AccumulateHist(m, shard1, truth, r); err != nil {
		t.Fatal(err)
	}
	if err := AccumulateHist(m, shard2, truth, r); err != nil {
		t.Fatal(err)
	}
	merged := shard1.Clone()
	if err := merged.Merge(shard2); err != nil {
		t.Fatal(err)
	}
	want, err := EstimateFromAggregate(m, merged)
	if err != nil {
		t.Fatal(err)
	}

	pipeline, prm, err := NewCollectorPipeline("DAM", dom, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if pipeline.Scheme != rm.Scheme() || prm.Scheme() != rm.Scheme() {
		t.Fatalf("pipeline scheme %q, mechanism scheme %q", pipeline.Scheme, rm.Scheme())
	}
	c, err := collector.New(collector.Config{Mechanism: rm, Pipeline: pipeline})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c)
	defer srv.Close()

	client := NewCollectorClient(srv.URL)
	ctx := context.Background()
	if err := client.Health(ctx); err != nil {
		t.Fatal(err)
	}
	for _, shard := range []*Aggregate{shard1, shard2} {
		if _, err := client.SubmitAggregate(ctx, shard, pipeline); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := client.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Mass, want.Mass) {
		t.Fatal("collector estimate is not byte-identical to the in-process EstimateFromAggregate")
	}
	var stats *CollectorStats
	if stats, err = client.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if stats.AggregateShards != 2 || stats.Reports != merged.N {
		t.Fatalf("stats did not count the submissions: %+v", stats)
	}
}

// TestFleetPipelinePublic drives the fleet supervisor through the
// public API: NewFleetPipeline over two real collectors, four shards
// submitted through the supervisor, and the fleet estimate must be
// byte-identical to the in-process EstimateFromAggregate on the union —
// the collector invariant one level up.
func TestFleetPipelinePublic(t *testing.T) {
	dom, err := NewDomain(0, 0, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewDAM(dom, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := AsReporting(m)
	if err != nil {
		t.Fatal(err)
	}
	truth := lifecycleTruth(dom)
	r := NewRand(29)
	shards := make([]*Aggregate, 4)
	union := rm.NewAggregate()
	for i := range shards {
		shards[i] = rm.NewAggregate()
		if err := AccumulateHist(m, shards[i], truth, r); err != nil {
			t.Fatal(err)
		}
		if err := union.Merge(shards[i]); err != nil {
			t.Fatal(err)
		}
	}
	want, err := EstimateFromAggregate(m, union)
	if err != nil {
		t.Fatal(err)
	}

	// Two collectors in adopt mode: the supervisor injects the pinned
	// pipeline, so neither needs pre-building.
	memberURLs := make([]string, 2)
	for i := range memberURLs {
		c, err := collector.New(collector.Config{
			Build: func(p *collector.Pipeline) (collector.Estimator, error) {
				return NewMechanismFromPipeline(p)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(c)
		defer srv.Close()
		memberURLs[i] = srv.URL
	}
	pipeline, sup, err := NewFleetPipeline("DAM", dom, 2.0, memberURLs)
	if err != nil {
		t.Fatal(err)
	}
	if pipeline.Scheme != rm.Scheme() {
		t.Fatalf("fleet pipeline scheme %q, mechanism scheme %q", pipeline.Scheme, rm.Scheme())
	}
	supSrv := httptest.NewServer(sup)
	defer func() { supSrv.Close(); sup.Close() }()
	client := NewCollectorClient(supSrv.URL)
	ctx := context.Background()
	for _, shard := range shards {
		if _, err := client.SubmitAggregate(ctx, shard, nil); err != nil {
			t.Fatal(err)
		}
	}
	got, meta, err := client.Estimate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Warm {
		t.Fatal("first fleet decode should be cold")
	}
	if !reflect.DeepEqual(got.Mass, want.Mass) {
		t.Fatal("fleet estimate is not byte-identical to the in-process EstimateFromAggregate")
	}
	var stats *CollectorStats
	if stats, err = client.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if stats.Generation != uint64(len(shards)) || stats.Reports != union.N {
		t.Fatalf("fleet stats did not count the submissions: %+v", stats)
	}
}
