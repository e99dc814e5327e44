// Taxiflow: private demand estimation for a ride-hailing service (the
// paper's introduction scenario), run through a real collector fleet
// the way a production deployment would.
//
// Drivers' pickup locations are sensitive. Each pickup is randomised on
// device — one compact LDP Report per driver — and the reports stream to
// several independent aggregation shards. The shards hold only noisy
// counts (safe for untrusted infrastructure) and ship their aggregates
// over HTTP, in the deterministic DPA2 binary wire format, to a fleet
// supervisor (internal/fleet) that routes each submission to one of two
// collector daemons (internal/collector), then hierarchically merges the
// members' aggregates and serves the decoded estimate. The example
// compares DAM, HUEM, DAM-NS and MDSW over the same noisy setting and
// reports their Wasserstein errors — the smaller, the better the
// dispatch decisions downstream.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"dpspatial"
	"dpspatial/internal/collector"
	"dpspatial/internal/rng"
	"dpspatial/internal/synth"
)

// collectRound plays one collection epoch over the fleet: every driver
// reports to one of the shards, each shard submits its aggregate to the
// supervisor over HTTP — which routes it to one of the collector
// members — and the fleet estimate is fetched back. The fetched
// histogram is byte-identical to decoding the merged shards in process:
// the supervisor's first decode hierarchically merges every member's
// aggregate and cold-starts EM, so neither the member count nor the
// routing changes a single bit of the output.
func collectRound(rm dpspatial.ReportingMechanism, pipeline *dpspatial.CollectorPipeline, mechName string, dom dpspatial.Domain,
	pts []dpspatial.Point, shards, members int, eps float64, seed uint64) (*dpspatial.Histogram, *dpspatial.CollectorStats, error) {
	// One fresh fleet per epoch: a long-running deployment would instead
	// keep merging and let the supervisor's warm-started cadence
	// refreshes absorb new shards (see `damctl supervise`).
	memberURLs := make([]string, members)
	for i := range memberURLs {
		coll, err := collector.New(collector.Config{Mechanism: rm, Pipeline: pipeline})
		if err != nil {
			return nil, nil, err
		}
		srv := httptest.NewServer(coll)
		defer srv.Close()
		memberURLs[i] = srv.URL
	}
	_, sup, err := dpspatial.NewFleetPipeline(mechName, dom, eps, memberURLs)
	if err != nil {
		return nil, nil, err
	}
	defer sup.Close()
	supSrv := httptest.NewServer(sup)
	defer supSrv.Close()
	client := dpspatial.NewCollectorClient(supSrv.URL)
	ctx := context.Background()

	// Client stage: every driver encodes one report on device and ships
	// it to one of the shards (round-robin here; any assignment works —
	// aggregation is order-independent).
	aggs := make([]*dpspatial.Aggregate, shards)
	for s := range aggs {
		aggs[s] = rm.NewAggregate()
	}
	r := dpspatial.NewRand(seed)
	for u, p := range pts {
		rep, err := rm.Report(dom.Index(dom.CellOf(p)), r)
		if err != nil {
			return nil, nil, err
		}
		if err := aggs[u%shards].Add(rep); err != nil {
			return nil, nil, err
		}
	}
	// Aggregator stage: each shard ships its noisy counts to the
	// supervisor, which routes them across the collector fleet — a
	// tree, a chain or any interleaving of arrivals produces
	// byte-identical merged state.
	for _, shard := range aggs {
		if _, err := client.SubmitAggregate(ctx, shard, nil); err != nil {
			return nil, nil, err
		}
	}
	// Estimator stage: the supervisor pulls each member's aggregate,
	// merges hierarchically, decodes once, and serves the fleet
	// histogram.
	est, _, err := client.Estimate(ctx)
	if err != nil {
		return nil, nil, err
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		return nil, nil, err
	}
	return est, stats, nil
}

func main() {
	const (
		d       = 12
		eps     = 2.1
		shards  = 4 // independent aggregation shards
		members = 2 // collector daemons behind the supervisor
	)
	ds, err := synth.NYCGreenTaxiLike(rng.New(2016), 1.0)
	if err != nil {
		log.Fatal(err)
	}
	// Use the dense part B (the paper's NYC part with 42k pickups).
	pts := make([]dpspatial.Point, 0)
	for _, p := range ds.Extract(ds.Parts[1]) {
		pts = append(pts, dpspatial.Point{X: p.X, Y: p.Y})
	}
	dom, err := dpspatial.DomainOver(pts, d)
	if err != nil {
		log.Fatal(err)
	}
	truth := dpspatial.HistFromPoints(dom, pts)
	normTruth := truth.Clone().Normalize()

	fmt.Printf("Private taxi-demand estimation: %d pickups, %d×%d grid, eps=%.1f, %d shards through a %d-collector fleet\n\n",
		len(pts), d, d, eps, shards, members)
	fmt.Println("True demand:")
	fmt.Print(normTruth.Render())

	mechanisms := []struct {
		name string
	}{
		{"DAM"}, {"DAM-NS"}, {"HUEM"}, {"MDSW"},
	}
	fmt.Printf("\n%-8s %10s\n", "method", "W2 error")
	for _, m := range mechanisms {
		pipeline, rm, err := dpspatial.NewCollectorPipeline(m.name, dom, eps)
		if err != nil {
			log.Fatal(err)
		}
		// Average a few collection rounds: LDP noise dominates at this n.
		const rounds = 3
		total := 0.0
		for round := uint64(0); round < rounds; round++ {
			est, stats, err := collectRound(rm, pipeline, m.name, dom, pts, shards, members, eps, 100+round)
			if err != nil {
				log.Fatal(err)
			}
			if stats.Generation != shards || stats.Reports != float64(len(pts)) {
				log.Fatalf("fleet routed %d shards / %g reports, expected %d / %d",
					stats.Generation, stats.Reports, shards, len(pts))
			}
			w2, err := dpspatial.Wasserstein2Sinkhorn(normTruth, est)
			if err != nil {
				log.Fatal(err)
			}
			total += w2
		}
		fmt.Printf("%-8s %10.4f\n", m.name, total/rounds)
	}
	fmt.Println("\nLower is better: DAM's disk reporting keeps demand mass near its true")
	fmt.Println("location, so dispatch decisions based on the private map stay sound.")
}
