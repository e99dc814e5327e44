// Rangequery: private range counting over a spatial distribution — the
// composition the paper points at in Section II (DAM + hierarchical
// range-query methods) — run end to end through the report lifecycle.
//
// An analyst wants "how many users are in this rectangle?" for arbitrary
// rectangles, under LDP. Every user encodes one report on device; the
// reports stream in shards over HTTP loopback to an in-process collector
// daemon (internal/collector), exactly like `damctl report | damctl
// submit` against `damctl serve`. The example compares three routes —
// the DAM-estimated density, an AHEAD-style noisy hierarchy, and a flat
// categorical (CFO) estimate — and then answers concrete queries live
// from the collectors' GET /v1/query endpoint, checking every served
// answer against the in-process reference.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"dpspatial"
	"dpspatial/internal/collector"
	"dpspatial/internal/fo"
	"dpspatial/internal/rangequery"
	"dpspatial/internal/rng"
	"dpspatial/internal/synth"
)

// reportShards is how many report-shard submissions each mechanism's
// stream is split across — aggregation is order-independent, so any
// sharding produces the identical merged state.
const reportShards = 4

// streamEstimate replays the monolithic pipeline's report stream — one
// report per user, in the same cell-major order and from the same seeded
// stream EstimateHist consumes — through a loopback HTTP collector, and
// returns the estimate the collector serves plus a live client for
// follow-up /v1/query calls. The caller owns closeFn.
func streamEstimate(rm dpspatial.ReportingMechanism, pipeline *dpspatial.CollectorPipeline, truth *dpspatial.Histogram, seed uint64) (
	est *dpspatial.Histogram, client *collector.Client, closeFn func(), err error) {
	coll, err := collector.New(collector.Config{Mechanism: rm, Pipeline: pipeline})
	if err != nil {
		return nil, nil, nil, err
	}
	srv := httptest.NewServer(coll)
	defer func() {
		if err != nil {
			srv.Close()
		}
	}()
	client = collector.NewClient(srv.URL)

	// Client stage: every user reports once; shards fill round-robin
	// like `damctl report --shards`.
	shards := make([][]fo.Report, reportShards)
	r := rng.New(seed)
	user := 0
	for i, c := range truth.Mass {
		for k := 0; k < int(c); k++ {
			rep, rerr := rm.Report(i, r)
			if rerr != nil {
				return nil, nil, nil, rerr
			}
			shards[user%reportShards] = append(shards[user%reportShards], rep)
			user++
		}
	}
	ctx := context.Background()
	for _, shard := range shards {
		if _, err = client.SubmitReports(ctx, nil, shard); err != nil {
			return nil, nil, nil, err
		}
	}
	est, _, err = client.Estimate(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	return est, client, srv.Close, nil
}

// mustMatch asserts the served histogram is byte-identical to the
// monolithic EstimateHist output — the lifecycle refactor's contract.
func mustMatch(name string, served, monolithic *dpspatial.Histogram) {
	if len(served.Mass) != len(monolithic.Mass) {
		log.Fatalf("%s: served %d cells, monolithic %d", name, len(served.Mass), len(monolithic.Mass))
	}
	for i := range served.Mass {
		if served.Mass[i] != monolithic.Mass[i] {
			log.Fatalf("%s: served estimate diverges from the monolithic path at cell %d: %g != %g",
				name, i, served.Mass[i], monolithic.Mass[i])
		}
	}
}

func main() {
	const (
		d   = 12
		eps = 2.0
	)
	pts, err := synth.City(rng.New(7), synth.CityConfig{
		N: 50000, Streets: 10, Hotspots: 6, StreetFrac: 0.7, Jitter: 0.004, HotSigma: 0.025,
	})
	if err != nil {
		log.Fatal(err)
	}
	dom, err := dpspatial.DomainOver(pts, d)
	if err != nil {
		log.Fatal(err)
	}
	truth := dpspatial.HistFromPoints(dom, pts)
	normTruth := truth.Clone().Normalize()
	ctx := context.Background()

	// Each route is one mechanism streamed through its own collector:
	// DAM density, AHEAD hierarchy, flat categorical oracle.
	routes := []struct {
		name string
		seed uint64
	}{
		{"DAM", 1},
		{"AHEAD", 2},
		{"CFO", 3},
	}

	workload, err := rangequery.RandomWorkload(d, 300, rng.New(4))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Private range counting: %d users, %d×%d grid, eps=%.1f, %d queries, %d report shards per route\n\n",
		len(pts), d, d, eps, len(workload), reportShards)
	fmt.Printf("%-8s %14s\n", "route", "range MSE")

	clients := make(map[string]*collector.Client)
	mechs := make(map[string]dpspatial.ReportingMechanism)
	ests := make(map[string]*dpspatial.Histogram)
	for _, route := range routes {
		pipeline, rm, err := dpspatial.NewCollectorPipeline(route.name, dom, eps)
		if err != nil {
			log.Fatal(err)
		}
		est, client, closeFn, err := streamEstimate(rm, pipeline, truth, route.seed)
		if err != nil {
			log.Fatal(err)
		}
		defer closeFn()

		// The served estimate must reproduce the in-process pipeline
		// bit for bit: same seed, same cell-major stream, same decode.
		monolithic, err := rm.EstimateHist(truth, rng.New(route.seed))
		if err != nil {
			log.Fatal(err)
		}
		mustMatch(route.name, est, monolithic)

		mse, err := rangequery.MSE(normTruth, est, workload)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %14.6f\n", route.name, mse)
		clients[route.name] = client
		mechs[route.name] = rm
		ests[route.name] = est
	}

	// Answer one concrete rectangle live from each collector's
	// /v1/query endpoint. DAM answers over its histogram; AHEAD answers
	// over the noisy quadtree (count units — few nodes cover a big
	// rectangle), which we check against decoding the same aggregate in
	// process.
	q := rangequery.Query{X0: 2, Y0: 2, X1: 8, Y1: 8}
	want, err := rangequery.Answer(normTruth, q)
	if err != nil {
		log.Fatal(err)
	}
	damResp, err := clients["DAM"].QueryRange(ctx, q.X0, q.Y0, q.X1, q.Y1)
	if err != nil {
		log.Fatal(err)
	}
	if ref, err := rangequery.Answer(ests["DAM"], q); err != nil {
		log.Fatal(err)
	} else if damResp.Range.Value != ref {
		log.Fatalf("DAM /v1/query answered %g, in-process reference %g", damResp.Range.Value, ref)
	}
	fmt.Printf("\nExample query [%d..%d]×[%d..%d]: true share %.3f, DAM /v1/query (%s basis) %.3f\n",
		q.X0, q.X1, q.Y0, q.Y1, want, damResp.Basis, damResp.Range.Value)

	aheadResp, err := clients["AHEAD"].QueryRange(ctx, q.X0, q.Y0, q.X1, q.Y1)
	if err != nil {
		log.Fatal(err)
	}
	localAgg, err := dpspatial.NewAggregateFor(mechs["AHEAD"])
	if err != nil {
		log.Fatal(err)
	}
	if err := dpspatial.AccumulateHist(mechs["AHEAD"], localAgg, truth, rng.New(2)); err != nil {
		log.Fatal(err)
	}
	localResp, err := collector.AnswerQueryFromAggregate(mechs["AHEAD"], localAgg, collector.QueryRequest{
		Type: collector.QueryTypeRange, Range: q,
	})
	if err != nil {
		log.Fatal(err)
	}
	if aheadResp.Basis != collector.QueryBasisTree || aheadResp.Range.Value != localResp.Range.Value {
		log.Fatalf("AHEAD /v1/query answered %g over %q, in-process tree decode %g",
			aheadResp.Range.Value, aheadResp.Basis, localResp.Range.Value)
	}
	fmt.Printf("AHEAD answers the same rectangle over its %s basis: %.1f of %d users (true %d)\n",
		aheadResp.Basis, aheadResp.Range.Value, len(pts), int(want*float64(len(pts))))

	// Top-k heavy hitters straight from the DAM collector.
	top, err := clients["DAM"].QueryTopK(ctx, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nDAM /v1/query top-3 cells:")
	for _, c := range top.TopK.Cells {
		fmt.Printf("  (%2d,%2d) share %.3f\n", c.X, c.Y, c.Mass)
	}
	fmt.Println("\nEvery served answer above was checked byte-for-byte against the")
	fmt.Println("monolithic in-process pipeline on the same report stream.")
}
