// Trajectory: the Appendix-D comparison — recover the spatial point
// distribution of a fleet's trajectories under LDP, with the trajectory-
// specific baselines (LDPTrace, PivotTrace) against plain DAM over
// points — run end to end through the report lifecycle.
//
// Each user's full trajectory is encoded on device into one compact LDP
// report (ReportTrajectory); the reports stream in shards over HTTP
// loopback to an in-process collector daemon (internal/collector), which
// merges them and serves the decoded spatial estimate — the same
// pipeline `damctl report | damctl submit | damctl serve` runs across
// processes. Every served histogram is checked byte-for-byte against
// decoding the same aggregate in process.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"dpspatial"
	"dpspatial/internal/collector"
	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
	"dpspatial/internal/rng"
	"dpspatial/internal/synth"
	"dpspatial/internal/trajectory"
)

// reportShards is how many shard submissions each mechanism's report
// stream is split across — any sharding merges to the identical state.
const reportShards = 3

// encodeTrajectories plays the client stage: one LDP report per user
// trajectory, every report also accumulated into the local reference
// aggregate the served estimate is checked against.
func encodeTrajectories(report func(trajectory.Trajectory, *rng.RNG) (fo.Report, error),
	agg *fo.Aggregate, trajs []trajectory.Trajectory, r *rng.RNG) ([]fo.Report, error) {
	reports := make([]fo.Report, 0, len(trajs))
	for _, tr := range trajs {
		rep, err := report(tr, r)
		if err != nil {
			return nil, err
		}
		if err := agg.Add(rep); err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// serveReports streams the reports to a fresh loopback HTTP collector,
// built around rm and pinned to the named mechanism's pipeline, in
// reportShards round-robin shard submissions and returns the estimate
// the collector serves back.
func serveReports(rm collector.Estimator, name string, dom grid.Domain, eps float64, reports []fo.Report) (*grid.Hist2D, error) {
	pipeline, _, err := dpspatial.NewCollectorPipeline(name, dom, eps)
	if err != nil {
		return nil, err
	}
	coll, err := collector.New(collector.Config{Mechanism: rm, Pipeline: pipeline})
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(coll)
	defer srv.Close()
	client := collector.NewClient(srv.URL)
	ctx := context.Background()
	for s := 0; s < reportShards; s++ {
		shard := make([]fo.Report, 0, len(reports)/reportShards+1)
		for u := s; u < len(reports); u += reportShards {
			shard = append(shard, reports[u])
		}
		if len(shard) == 0 {
			continue
		}
		if _, err := client.SubmitReports(ctx, nil, shard); err != nil {
			return nil, err
		}
	}
	est, _, err := client.Estimate(ctx)
	return est, err
}

// mustMatch asserts the served histogram is byte-identical to decoding
// the reference aggregate in process — the lifecycle contract.
func mustMatch(name string, served, local *grid.Hist2D) {
	if len(served.Mass) != len(local.Mass) {
		log.Fatalf("%s: served %d cells, local %d", name, len(served.Mass), len(local.Mass))
	}
	for i := range served.Mass {
		if served.Mass[i] != local.Mass[i] {
			log.Fatalf("%s: served estimate diverges from the in-process decode at cell %d: %g != %g",
				name, i, served.Mass[i], local.Mass[i])
		}
	}
}

func main() {
	const (
		d   = 15
		eps = 1.5
	)
	// City-like pickup points seed the mobility workload.
	pts, err := synth.City(rng.New(99), synth.CityConfig{
		N: 30000, Streets: 12, Hotspots: 6, StreetFrac: 0.75, Jitter: 0.004, HotSigma: 0.02,
	})
	if err != nil {
		log.Fatal(err)
	}
	trajs, err := trajectory.Generate(pts, trajectory.WorkloadConfig{
		GridD: 120, NumTraj: 1000, MinLen: 2, MaxLen: 200,
	}, rng.New(1))
	if err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, tr := range trajs {
		total += len(tr)
	}
	fmt.Printf("Workload: %d trajectories, %d points total, %d report shards per mechanism\n\n",
		len(trajs), total, reportShards)

	dom, err := grid.SquareDomain(pts, d)
	if err != nil {
		log.Fatal(err)
	}
	truth := trajectory.PointHist(dom, trajs).Normalize()

	// LDPTrace: one report per user carries the trajectory's start cell,
	// length bucket and one sampled transition; the collector decodes the
	// merged mobility model and synthesises the spatial estimate.
	lt, err := trajectory.NewLDPTrace(dom, eps, 200)
	if err != nil {
		log.Fatal(err)
	}
	ltAgg := lt.NewAggregate()
	ltReports, err := encodeTrajectories(lt.ReportTrajectory, ltAgg, trajs, rng.New(2))
	if err != nil {
		log.Fatal(err)
	}
	ltEst, err := serveReports(lt, "LDPTrace", dom, eps, ltReports)
	if err != nil {
		log.Fatal(err)
	}
	ltLocal, err := lt.EstimateFromAggregate(ltAgg)
	if err != nil {
		log.Fatal(err)
	}
	mustMatch("LDPTrace", ltEst, ltLocal)
	report("LDPTrace", truth, ltEst)

	// PivotTrace: each report carries the user's perturbed pivots,
	// reconstructed into points by interpolation at encode time.
	pt, err := trajectory.NewPivotTrace(dom, eps, 4)
	if err != nil {
		log.Fatal(err)
	}
	ptAgg := pt.NewAggregate()
	ptReports, err := encodeTrajectories(pt.ReportTrajectory, ptAgg, trajs, rng.New(3))
	if err != nil {
		log.Fatal(err)
	}
	ptEst, err := serveReports(pt, "PivotTrace", dom, eps, ptReports)
	if err != nil {
		log.Fatal(err)
	}
	ptLocal, err := pt.EstimateFromAggregate(ptAgg)
	if err != nil {
		log.Fatal(err)
	}
	mustMatch("PivotTrace", ptEst, ptLocal)
	report("PivotTrace", truth, ptEst)

	// DAM: treat every trajectory point as an independent LDP report —
	// the same cell-major stream EstimateHist consumes.
	mech, err := dpspatial.NewDAM(dom, eps)
	if err != nil {
		log.Fatal(err)
	}
	dam, err := dpspatial.AsReporting(mech)
	if err != nil {
		log.Fatal(err)
	}
	counts := trajectory.PointHist(dom, trajs)
	r := dpspatial.NewRand(4)
	damReports := make([]fo.Report, 0, total)
	for i, c := range counts.Mass {
		for k := 0; k < int(c); k++ {
			rep, err := dam.Report(i, r)
			if err != nil {
				log.Fatal(err)
			}
			damReports = append(damReports, rep)
		}
	}
	damEst, err := serveReports(dam, "DAM", dom, eps, damReports)
	if err != nil {
		log.Fatal(err)
	}
	monolithic, err := dam.EstimateHist(counts, dpspatial.NewRand(4))
	if err != nil {
		log.Fatal(err)
	}
	mustMatch("DAM", damEst, monolithic)
	report("DAM", truth, damEst)

	fmt.Println("\nDAM spends the whole budget on location, while the trajectory")
	fmt.Println("baselines split it across direction/length/pivots — which is why")
	fmt.Println("DAM recovers the point distribution best (Figure 14). Every line")
	fmt.Println("above was served by an HTTP collector and matched the in-process")
	fmt.Println("decode of the same merged aggregate bit for bit.")
}

func report(name string, truth, est *grid.Hist2D) {
	w2, err := dpspatial.Wasserstein2Sinkhorn(truth, est)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-11s W2 = %.4f\n", name, w2)
}
