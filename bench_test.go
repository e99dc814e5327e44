// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each figure benchmark regenerates the corresponding series
// at a reduced workload scale (the shapes, not the runtimes, are the
// reproduction target — set -scale via experiments.Config for full-size
// runs through cmd/damctl) and reports a representative W₂ as a custom
// metric so regressions in estimation quality show up next to ns/op.
//
// Micro-benchmarks for the core operations (perturbation throughput,
// channel construction, EM decoding, exact and approximate optimal
// transport) follow the figure benches.
package dpspatial_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dpspatial"
	"dpspatial/internal/collector"
	"dpspatial/internal/durable"
	"dpspatial/internal/em"
	"dpspatial/internal/experiments"
	"dpspatial/internal/fo"
	"dpspatial/internal/localprivacy"
	"dpspatial/internal/lp"
	"dpspatial/internal/rng"
	"dpspatial/internal/sam"
	"dpspatial/internal/semgeoi"
	"dpspatial/internal/transport"
)

// BenchmarkRunnerInfo embeds the runner's parallelism in every benchmark
// record as custom metrics, so 1-core and multi-core BENCH_*.json runs
// are distinguishable at a glance (BENCH_pr1..3 were all recorded at
// GOMAXPROCS=1, leaving the parallel paths unmeasured).
func BenchmarkRunnerInfo(b *testing.B) {
	for i := 0; i < b.N; i++ {
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	b.ReportMetric(float64(runtime.NumCPU()), "numcpu")
}

// benchConfig keeps figure benches in the seconds range; the series
// shapes already emerge at this scale.
func benchConfig() experiments.Config {
	return experiments.Config{
		Scale:         0.002,
		Repeats:       1,
		Seed:          42,
		MaxPoints:     2000,
		LPCalibration: false, // calibration is benchmarked separately
	}
}

func reportLastW2(b *testing.B, fig *experiments.Figure) {
	b.Helper()
	if len(fig.Series) == 0 {
		b.Fatal("figure has no series")
	}
	last := fig.Series[len(fig.Series)-1]
	if len(last.Y) == 0 {
		b.Fatal("series has no points")
	}
	b.ReportMetric(last.Y[len(last.Y)-1], "W2")
}

// BenchmarkTable3Datasets regenerates Table III (dataset inventory).
func BenchmarkTable3Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchConfig())
		if _, err := s.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Settings regenerates Table IV (parameter grid).
func BenchmarkTable4Settings(b *testing.B) {
	s := experiments.NewSuite(benchConfig())
	for i := 0; i < b.N; i++ {
		if t := s.Table4(); len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable5TrajectorySettings regenerates Table V.
func BenchmarkTable5TrajectorySettings(b *testing.B) {
	s := experiments.NewSuite(benchConfig())
	for i := 0; i < b.N; i++ {
		if t := s.Table5(); len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig8RadiusSweep regenerates Figure 8 (W₂ vs radius b).
func BenchmarkFig8RadiusSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchConfig())
		fig, err := s.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		reportLastW2(b, fig)
	}
}

// BenchmarkFig9SmallD regenerates Figure 9(a–e): one panel per dataset,
// all five mechanisms, exact LP Wasserstein.
func BenchmarkFig9SmallD(b *testing.B) {
	for _, dataset := range experiments.DatasetNames() {
		b.Run(dataset, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := experiments.NewSuite(benchConfig())
				fig, err := s.Fig9SmallD(dataset)
				if err != nil {
					b.Fatal(err)
				}
				reportLastW2(b, fig)
			}
		})
	}
}

// BenchmarkFig9LargeD regenerates Figure 9(f–j) (SEM-Geo-I vs DAM,
// Sinkhorn). One representative dataset per run keeps the suite's total
// time bounded; pass -bench 'Fig9LargeD' -benchtime 1x with a larger
// scale for full panels.
func BenchmarkFig9LargeD(b *testing.B) {
	for _, dataset := range []string{"Crime", "SZipf"} {
		b.Run(dataset, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := experiments.NewSuite(benchConfig())
				fig, err := s.Fig9LargeD(dataset)
				if err != nil {
					b.Fatal(err)
				}
				reportLastW2(b, fig)
			}
		})
	}
}

// BenchmarkFig9SmallEps regenerates Figure 9(k–o).
func BenchmarkFig9SmallEps(b *testing.B) {
	for _, dataset := range []string{"NYC", "Normal"} {
		b.Run(dataset, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := experiments.NewSuite(benchConfig())
				fig, err := s.Fig9SmallEps(dataset)
				if err != nil {
					b.Fatal(err)
				}
				reportLastW2(b, fig)
			}
		})
	}
}

// BenchmarkFig9LargeEps regenerates Figure 9(p–t).
func BenchmarkFig9LargeEps(b *testing.B) {
	for _, dataset := range []string{"MNormal"} {
		b.Run(dataset, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := experiments.NewSuite(benchConfig())
				fig, err := s.Fig9LargeEps(dataset)
				if err != nil {
					b.Fatal(err)
				}
				reportLastW2(b, fig)
			}
		})
	}
}

// BenchmarkFig13FullDomain regenerates the Appendix-C full-domain Crime
// panels.
func BenchmarkFig13FullDomain(b *testing.B) {
	for _, panel := range []string{"a", "b", "c", "d"} {
		b.Run(panel, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := experiments.NewSuite(benchConfig())
				fig, err := s.Fig13(panel)
				if err != nil {
					b.Fatal(err)
				}
				reportLastW2(b, fig)
			}
		})
	}
}

// BenchmarkFig14TrajectoryD regenerates Figure 14(a).
func BenchmarkFig14TrajectoryD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchConfig())
		fig, err := s.Fig14a()
		if err != nil {
			b.Fatal(err)
		}
		reportLastW2(b, fig)
	}
}

// BenchmarkFig14TrajectoryEps regenerates Figure 14(b).
func BenchmarkFig14TrajectoryEps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchConfig())
		fig, err := s.Fig14b()
		if err != nil {
			b.Fatal(err)
		}
		reportLastW2(b, fig)
	}
}

// --- Micro-benchmarks for the core operations ---

func benchDomain(b *testing.B, d int) dpspatial.Domain {
	b.Helper()
	dom, err := dpspatial.NewDomain(0, 0, float64(d), d)
	if err != nil {
		b.Fatal(err)
	}
	return dom
}

// BenchmarkDAMChannelBuild measures DAM construction (footprint +
// channel) at the paper's default d=15, eps=3.5.
func BenchmarkDAMChannelBuild(b *testing.B) {
	dom := benchDomain(b, 15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sam.NewDAM(dom, 3.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDAMPerturb measures single-report randomisation throughput
// via alias samplers (the per-user cost of GridAreaResponse).
func BenchmarkDAMPerturb(b *testing.B) {
	dom := benchDomain(b, 15)
	m, err := sam.NewDAM(dom, 3.5)
	if err != nil {
		b.Fatal(err)
	}
	samplers, err := m.Samplers()
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samplers[i%len(samplers)].Draw(r)
	}
}

// BenchmarkEMEstimate measures the PostProcess (EM) step on DAM's
// structured (translated-footprint) channel at d=15 — each sweep costs
// O(d²·K) for a K-cell footprint instead of the dense O(In·Out).
func BenchmarkEMEstimate(b *testing.B) {
	dom := benchDomain(b, 15)
	m, err := sam.NewDAM(dom, 3.5)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	counts := make([]float64, m.NumOutputs())
	for i := range counts {
		counts[i] = float64(r.Intn(100))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := em.Estimate(m.Linear(), counts, &em.Options{MaxIter: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEMDecodeServed measures the decode a loadbench refresh
// cycle's fresh read serves: DAM at d=15, ε=3.5 through the mechanism's
// warm decode, started from the previous estimate, with the default
// options, so EM runs all 1,000 iterations.
func BenchmarkEMDecodeServed(b *testing.B) {
	dom := benchDomain(b, 15)
	m, err := sam.NewDAM(dom, 3.5)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	agg := m.NewAggregate()
	for i := range agg.Planes[0] {
		agg.Planes[0][i] = float64(r.Intn(100))
	}
	init, _, err := m.EstimateFromAggregateWarm(agg, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.EstimateFromAggregateWarm(agg, init); err != nil {
			b.Fatal(err)
		}
	}
}

// semGeoIDecodeWorkload builds the SEM-Geo-I mechanism at side d with a
// deterministic count vector — the shared workload of the dense-channel
// EM benchmarks below.
func semGeoIDecodeWorkload(b *testing.B, d int) (*semgeoi.Mechanism, []float64) {
	b.Helper()
	dom := benchDomain(b, d)
	m, err := semgeoi.New(dom, 2.0)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	counts := make([]float64, m.NumOutputs())
	for i := range counts {
		counts[i] = float64(r.Intn(100))
	}
	return m, counts
}

// BenchmarkEMEstimateDense measures the dense-channel-family decode
// (SEM-Geo-I at d=15) through the mechanism's operative channel — the
// convolutional Toeplitz/FFT representation.
// Before the convolutional engine this decode ran O(d⁴) per EM sweep on
// the materialised matrix; the spectral path is O(d² log d).
func BenchmarkEMEstimateDense(b *testing.B) {
	m, counts := semGeoIDecodeWorkload(b, 15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := em.Estimate(m.Linear(), counts, &em.Options{MaxIter: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEMEstimateDenseMaterialized is the same decode through the
// materialised dense matrix — the pre-convolutional baseline the
// BenchmarkEMEstimateDense speedup is measured against.
func BenchmarkEMEstimateDenseMaterialized(b *testing.B) {
	m, counts := semGeoIDecodeWorkload(b, 15)
	dense := m.Channel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := em.Estimate(dense, counts, &em.Options{MaxIter: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEMEstimateLargeD measures the dense-channel-family decode at
// the paper's large-domain setting (SEM-Geo-I at d=40, so In=1600): the
// regime where the dense matrix alone is In·Out ≈ 2.6M float64s and every
// EM iteration O(d⁴) — the last dense-decode gap the convolutional
// engine closes.
func BenchmarkEMEstimateLargeD(b *testing.B) {
	m, counts := semGeoIDecodeWorkload(b, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := em.Estimate(m.Linear(), counts, &em.Options{MaxIter: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEMEstimateLargeDMaterialized is the d=40 decode through the
// materialised dense matrix — the pre-convolutional baseline the
// BenchmarkEMEstimateLargeD speedup is measured against.
func BenchmarkEMEstimateLargeDMaterialized(b *testing.B) {
	m, counts := semGeoIDecodeWorkload(b, 40)
	dense := m.Channel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := em.Estimate(dense, counts, &em.Options{MaxIter: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEMEstimateStructuredLargeD measures the uniform-plus-sparse
// structured decode at d=40 (DAM's channel) — the workload the
// pre-PR-7 BenchmarkEMEstimateLargeD timed, kept for series continuity.
func BenchmarkEMEstimateStructuredLargeD(b *testing.B) {
	dom := benchDomain(b, 40)
	m, err := sam.NewDAM(dom, 3.5)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	counts := make([]float64, m.NumOutputs())
	for i := range counts {
		counts[i] = float64(r.Intn(100))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := em.Estimate(m.Linear(), counts, &em.Options{MaxIter: 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Channel-sweep micro-benchmarks: one Forward application per
// representation, on same-size d=40 workloads, so the dense-vs-structured
// ratio is read directly off adjacent ns/op lines ---

func sweepDist(n int) []float64 {
	p := make([]float64, n)
	r := rng.New(11)
	sum := 0.0
	for i := range p {
		p[i] = r.Float64() + 0.01
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// BenchmarkChannelForwardDense sweeps the materialised SEM-Geo-I d=40
// matrix once: the O(d⁴) baseline row of the representation comparison.
func BenchmarkChannelForwardDense(b *testing.B) {
	m, _ := semGeoIDecodeWorkload(b, 40)
	dense := m.Channel()
	p := sweepDist(m.NumInputs())
	out := make([]float64, m.NumOutputs())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dense.Forward(p, out)
	}
}

// BenchmarkChannelForwardConv sweeps the same SEM-Geo-I d=40 channel in
// its convolutional representation: one O(d² log d) FFT convolution.
func BenchmarkChannelForwardConv(b *testing.B) {
	m, _ := semGeoIDecodeWorkload(b, 40)
	conv, ok := m.Linear().(*fo.ConvChannel)
	if !ok {
		b.Fatalf("channel is %T, want *fo.ConvChannel", m.Linear())
	}
	p := sweepDist(m.NumInputs())
	out := make([]float64, m.NumOutputs())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(p, out)
	}
}

// BenchmarkChannelForwardFootprint sweeps DAM's translated-footprint
// d=40 channel once: the O(d²·K) structured row of the comparison.
func BenchmarkChannelForwardFootprint(b *testing.B) {
	dom := benchDomain(b, 40)
	m, err := sam.NewDAM(dom, 3.5)
	if err != nil {
		b.Fatal(err)
	}
	p := sweepDist(m.NumInputs())
	out := make([]float64, m.NumOutputs())
	lin := m.Linear()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lin.Forward(p, out)
	}
}

// BenchmarkReportStreamDecode counts one POST /v1/report body of 200
// DAM reports at d=15, ε=3.5, with distinct indices in [128, 1000) as
// loadbench's ingest streams have, through collector.ReadReports. In
// canonical every line is json.Marshal's, which the byte scanner reads;
// in fallback the first line has one space, so encoding/json reads every
// line, as it does any stream from its first non-canonical line on.
func BenchmarkReportStreamDecode(b *testing.B) {
	m, err := sam.NewDAM(benchDomain(b, 15), 3.5)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(7)
	seen := map[int]bool{}
	var canonical []byte
	for len(seen) < 200 {
		rep, err := m.Report(r.Intn(m.NumInputs()), r)
		if err != nil {
			b.Fatal(err)
		}
		j := rep.Planes[0][0]
		if j < 128 || j >= 1000 || seen[j] {
			continue
		}
		seen[j] = true
		line, err := json.Marshal(&rep)
		if err != nil {
			b.Fatal(err)
		}
		canonical = append(append(canonical, line...), '\n')
	}
	fallback := append([]byte(`{"planes": `), canonical[len(`{"planes":`):]...)
	agg := m.NewAggregate()
	for _, bc := range []struct {
		name   string
		stream []byte
	}{{"canonical", canonical}, {"fallback", fallback}} {
		b.Run(bc.name, func(b *testing.B) {
			src := bytes.NewReader(nil)
			br := bufio.NewReader(src)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src.Reset(bc.stream)
				br.Reset(src)
				if err := collector.ReadReports(br, agg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEMEstimateWarm measures the incremental decode: EM on a
// merged aggregate warm-started from the pre-merge estimate.
func BenchmarkEMEstimateWarm(b *testing.B) {
	dom := benchDomain(b, 15)
	m, err := sam.NewDAM(dom, 3.5)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	counts := make([]float64, m.NumOutputs())
	for i := range counts {
		counts[i] = float64(r.Intn(100))
	}
	init, err := em.Estimate(m.Linear(), counts, &em.Options{MaxIter: 100})
	if err != nil {
		b.Fatal(err)
	}
	merged := make([]float64, len(counts))
	for i := range merged {
		merged[i] = counts[i] + float64(r.Intn(100))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := em.Estimate(m.Linear(), merged, &em.Options{MaxIter: 100, Init: init}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkW2Exact measures the transportation-LP Wasserstein on a 10×10
// grid (Equation 17).
func BenchmarkW2Exact(b *testing.B) {
	dom := benchDomain(b, 10)
	r := rng.New(3)
	a := dpspatial.HistFromPoints(dom, nil)
	c := dpspatial.HistFromPoints(dom, nil)
	for i := range a.Mass {
		a.Mass[i] = r.Float64()
		c.Mass[i] = r.Float64()
	}
	a.Normalize()
	c.Normalize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transport.W2Exact(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkW2Sinkhorn measures the entropy-regularised solver at the
// paper's large-d setting (15×15).
func BenchmarkW2Sinkhorn(b *testing.B) {
	dom := benchDomain(b, 15)
	r := rng.New(4)
	a := dpspatial.HistFromPoints(dom, nil)
	c := dpspatial.HistFromPoints(dom, nil)
	for i := range a.Mass {
		a.Mass[i] = r.Float64()
		c.Mass[i] = r.Float64()
	}
	a.Normalize()
	c.Normalize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transport.W2Sinkhorn(a, c, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSlicedWasserstein measures the Radon-projection sliced
// distance of Section V.
func BenchmarkSlicedWasserstein(b *testing.B) {
	dom := benchDomain(b, 15)
	r := rng.New(5)
	a := dpspatial.HistFromPoints(dom, nil)
	c := dpspatial.HistFromPoints(dom, nil)
	for i := range a.Mass {
		a.Mass[i] = r.Float64()
		c.Mass[i] = r.Float64()
	}
	a.Normalize()
	c.Normalize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transport.SlicedW(a, c, 2, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransportSimplex measures the raw LP solver on a dense random
// 50×50 instance.
func BenchmarkTransportSimplex(b *testing.B) {
	const n = 50
	r := rng.New(6)
	supply := make([]float64, n)
	demand := make([]float64, n)
	var st, dt float64
	for i := 0; i < n; i++ {
		supply[i] = r.Float64() + 0.01
		demand[i] = r.Float64() + 0.01
		st += supply[i]
		dt += demand[i]
	}
	for i := range demand {
		demand[i] *= st / dt
	}
	cost := make([]float64, n*n)
	for i := range cost {
		cost[i] = r.Float64() * 10
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.Solve(supply, demand, func(i, j int) float64 { return cost[i*n+j] }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimatePipeline measures the end-to-end public API on 20k
// users.
func BenchmarkEstimatePipeline(b *testing.B) {
	r := rng.New(7)
	pts := make([]dpspatial.Point, 20000)
	for i := range pts {
		pts[i] = dpspatial.Point{X: r.NormFloat64(), Y: r.NormFloat64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dpspatial.Estimate(pts, 10, 3.5, dpspatial.WithSeed(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (the DESIGN.md design-choice studies) ---

// BenchmarkAblationShrinkage quantifies the border-shrinkage gain
// (DAM vs DAM-NS) across all datasets.
func BenchmarkAblationShrinkage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchConfig())
		if _, err := s.AblationShrinkage(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPostprocess compares EM against EMS decoding.
func BenchmarkAblationPostprocess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchConfig())
		if _, err := s.AblationPostprocess("SZipf"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBaselines runs the widened Table I design-space
// comparison (CFO, MDSW, AHEAD, PlanarLaplace, DAM).
func BenchmarkAblationBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchConfig())
		if _, err := s.AblationBaselines("Normal", 8, 3.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeQueryExperiment measures the Section II composition
// claim: range-query MSE through DAM, AHEAD and CFO estimates.
func BenchmarkRangeQueryExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchConfig())
		if _, err := s.RangeQueryExperiment("SZipf", 8, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectorPipeline measures the networked report lifecycle:
// two pre-encoded DPA2 shard blobs POSTed to a fresh in-process
// collector over HTTP loopback, then the merged estimate fetched back
// (cold EM decode included) — the per-epoch cost of `damctl serve`.
func BenchmarkCollectorPipeline(b *testing.B) {
	dom := benchDomain(b, 10)
	pipeline, rm, err := dpspatial.NewCollectorPipeline("DAM", dom, 3.5)
	if err != nil {
		b.Fatal(err)
	}
	truth := dpspatial.HistFromPoints(dom, nil)
	r := rng.New(9)
	for i := 0; i < 20000; i++ {
		truth.Mass[r.Intn(len(truth.Mass))]++
	}
	blobs := make([][]byte, 2)
	rr := dpspatial.NewRand(10)
	for s := range blobs {
		shard := rm.NewAggregate()
		if err := dpspatial.AccumulateHist(rm, shard, truth, rr); err != nil {
			b.Fatal(err)
		}
		if blobs[s], err = shard.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := collector.New(collector.Config{Mechanism: rm, Pipeline: pipeline})
		if err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(c)
		client := dpspatial.NewCollectorClient(srv.URL)
		for _, blob := range blobs {
			if _, err := client.SubmitAggregateBlob(ctx, blob, nil); err != nil {
				b.Fatal(err)
			}
		}
		if _, _, err := client.Estimate(ctx); err != nil {
			b.Fatal(err)
		}
		srv.Close()
	}
}

// BenchmarkQueryPipeline measures the analyst tier end to end: two
// pre-encoded DPA2 shard blobs POSTed to a fresh in-process collector
// over HTTP loopback, then a range and a top-k answer fetched from GET
// /v1/query (the range decode is cold per iteration; the top-k reuses
// the generation-cached estimate) — the per-epoch cost of serving live
// queries on top of BenchmarkCollectorPipeline's merge work.
func BenchmarkQueryPipeline(b *testing.B) {
	dom := benchDomain(b, 10)
	pipeline, rm, err := dpspatial.NewCollectorPipeline("DAM", dom, 3.5)
	if err != nil {
		b.Fatal(err)
	}
	truth := dpspatial.HistFromPoints(dom, nil)
	r := rng.New(9)
	for i := 0; i < 20000; i++ {
		truth.Mass[r.Intn(len(truth.Mass))]++
	}
	blobs := make([][]byte, 2)
	rr := dpspatial.NewRand(10)
	for s := range blobs {
		shard := rm.NewAggregate()
		if err := dpspatial.AccumulateHist(rm, shard, truth, rr); err != nil {
			b.Fatal(err)
		}
		if blobs[s], err = shard.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := collector.New(collector.Config{Mechanism: rm, Pipeline: pipeline})
		if err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(c)
		client := dpspatial.NewCollectorClient(srv.URL)
		for _, blob := range blobs {
			if _, err := client.SubmitAggregateBlob(ctx, blob, nil); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := client.QueryRange(ctx, 2, 2, 7, 7); err != nil {
			b.Fatal(err)
		}
		if _, err := client.QueryTopK(ctx, 10); err != nil {
			b.Fatal(err)
		}
		srv.Close()
	}
}

// BenchmarkFleetPipeline measures the fleet-supervised lifecycle: two
// pre-encoded DPA2 shard blobs POSTed to a supervisor fronting two
// in-process collectors (routed round-robin over HTTP loopback), then
// the hierarchically merged fleet estimate fetched back (member
// aggregate pulls + cold EM decode included) — the per-epoch cost of
// `damctl supervise` relative to BenchmarkCollectorPipeline's single
// collector.
func BenchmarkFleetPipeline(b *testing.B) {
	dom := benchDomain(b, 10)
	pipeline, rm, err := dpspatial.NewCollectorPipeline("DAM", dom, 3.5)
	if err != nil {
		b.Fatal(err)
	}
	truth := dpspatial.HistFromPoints(dom, nil)
	r := rng.New(9)
	for i := 0; i < 20000; i++ {
		truth.Mass[r.Intn(len(truth.Mass))]++
	}
	blobs := make([][]byte, 2)
	rr := dpspatial.NewRand(10)
	for s := range blobs {
		shard := rm.NewAggregate()
		if err := dpspatial.AccumulateHist(rm, shard, truth, rr); err != nil {
			b.Fatal(err)
		}
		if blobs[s], err = shard.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memberURLs := make([]string, 2)
		memberSrvs := make([]*httptest.Server, 2)
		for j := range memberURLs {
			c, err := collector.New(collector.Config{Mechanism: rm, Pipeline: pipeline})
			if err != nil {
				b.Fatal(err)
			}
			memberSrvs[j] = httptest.NewServer(c)
			memberURLs[j] = memberSrvs[j].URL
		}
		_, sup, err := dpspatial.NewFleetPipeline("DAM", dom, 3.5, memberURLs)
		if err != nil {
			b.Fatal(err)
		}
		supSrv := httptest.NewServer(sup)
		client := dpspatial.NewCollectorClient(supSrv.URL)
		for _, blob := range blobs {
			if _, err := client.SubmitAggregateBlob(ctx, blob, nil); err != nil {
				b.Fatal(err)
			}
		}
		if _, _, err := client.Estimate(ctx); err != nil {
			b.Fatal(err)
		}
		supSrv.Close()
		sup.Close()
		for _, srv := range memberSrvs {
			srv.Close()
		}
	}
}

// BenchmarkDurableRecovery measures what a durable `damctl serve`
// does before it listens: durable.Open plus collector.New, on a DAM
// collector at d=15, ε=3.5 with tracing off, whose snapshot holds a
// full ack log of one-report acks with 32-hex trace IDs (as a traced
// daemon writes them) and whose WAL holds a 100-record tail. Every
// iteration recovers the same directory: nothing is closed gracefully,
// which would snapshot and empty the WAL.
func BenchmarkDurableRecovery(b *testing.B) {
	dom := benchDomain(b, 15)
	pipeline, rm, err := dpspatial.NewCollectorPipeline("DAM", dom, 3.5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := collector.Config{Mechanism: rm, Pipeline: pipeline, DisableTraces: true, SnapshotEvery: -1}
	dir := b.TempDir()
	st, err := durable.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	r, rr := rng.New(12), dpspatial.NewRand(13)
	meta, state := fullLogState(b, dom, pipeline, rm, r, rr)
	acks := make([]durable.AckEntry, collector.DedupWindow)
	for i := range acks {
		ack, err := json.Marshal(&collector.SubmitResponse{
			Scheme: rm.Scheme(), Reports: 1, TotalReports: float64(i + 1),
			Generation: uint64(i + 1), TraceID: fmt.Sprintf("%032x", r.Uint64()),
		})
		if err != nil {
			b.Fatal(err)
		}
		acks[i] = durable.AckEntry{ID: fmt.Sprintf("%032x", i), Ack: ack}
	}
	if err := st.WriteSnapshot(meta, state, acks); err != nil {
		b.Fatal(err)
	}
	st.Close()

	// The tail: 100 one-report shards submitted to the recovered
	// collector, which is then abandoned as a killed daemon would be.
	if st, err = durable.Open(dir); err != nil {
		b.Fatal(err)
	}
	tailCfg := cfg
	tailCfg.Store = st
	c, err := collector.New(tailCfg)
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(c)
	client := dpspatial.NewCollectorClient(srv.URL)
	one := dpspatial.HistFromPoints(dom, nil)
	for i := 0; i < 100; i++ {
		clear(one.Mass)
		one.Mass[r.Intn(len(one.Mass))] = 1
		shard := rm.NewAggregate()
		if err := dpspatial.AccumulateHist(rm, shard, one, rr); err != nil {
			b.Fatal(err)
		}
		blob, err := shard.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := client.SubmitAggregateBlobWithID(context.Background(), blob, nil, fmt.Sprintf("tail-%028d", i)); err != nil {
			b.Fatal(err)
		}
	}
	srv.Close()
	st.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := durable.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Store = st
		if _, err := collector.New(cfg); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if n := st.Stats().RecordsReplayed; n != 100 {
			b.Fatalf("recovery replayed %d WAL records, want 100", n)
		}
		st.Close()
		b.StartTimer()
	}
}

// fullLogState returns the snapshot meta and aggregate state of a
// collector that has merged collector.DedupWindow one-report shards,
// their cells drawn from r and their reports from rr.
func fullLogState(b *testing.B, dom dpspatial.Domain, pipeline *dpspatial.CollectorPipeline, rm dpspatial.ReportingMechanism, r, rr *dpspatial.Rand) (meta, state []byte) {
	b.Helper()
	truth := dpspatial.HistFromPoints(dom, nil)
	for i := 0; i < collector.DedupWindow; i++ {
		truth.Mass[r.Intn(len(truth.Mass))]++
	}
	agg := rm.NewAggregate()
	if err := dpspatial.AccumulateHist(rm, agg, truth, rr); err != nil {
		b.Fatal(err)
	}
	state, err := agg.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	meta, err = json.Marshal(map[string]any{
		"scheme": rm.Scheme(), "pipeline": pipeline,
		"generation": collector.DedupWindow, "aggregateShards": collector.DedupWindow,
	})
	if err != nil {
		b.Fatal(err)
	}
	return meta, state
}

// BenchmarkDurableSnapshot measures one snapshot of a full durable DAM
// collector at d=15, ε=3.5: durable.WriteSnapshot of its aggregate and
// a 65,536-ack log in the form an untraced ingest collector holds
// (200-report acks without trace IDs), streamed to the temp file,
// fsync'd and renamed into place, and the WAL reset. file-B/op is the
// snapshot file's size, so B/op over it is what a snapshot allocates per
// byte it writes.
func BenchmarkDurableSnapshot(b *testing.B) {
	dom := benchDomain(b, 15)
	pipeline, rm, err := dpspatial.NewCollectorPipeline("DAM", dom, 3.5)
	if err != nil {
		b.Fatal(err)
	}
	meta, state := fullLogState(b, dom, pipeline, rm, rng.New(14), dpspatial.NewRand(15))
	acks := make([]durable.AckEntry, collector.DedupWindow)
	for i := range acks {
		ack, err := json.Marshal(&collector.SubmitResponse{
			Scheme: rm.Scheme(), Reports: 200, TotalReports: float64(200 * (i + 1)), Generation: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		acks[i] = durable.AckEntry{ID: fmt.Sprintf("run-%012x-%015d", 14, i), Ack: ack}
	}
	dir := b.TempDir()
	st, err := durable.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.WriteSnapshot(meta, state, acks); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fi, err := os.Stat(filepath.Join(dir, durable.SnapshotFile))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fi.Size()), "file-B/op")
}

// semGeoIChannel builds SEM-Geo-I's dense channel at budget x, as
// semgeoi.CalibrateToDAM's bisection does.
func semGeoIChannel(dom dpspatial.Domain, x float64) (*fo.Channel, error) {
	m, err := semgeoi.New(dom, x)
	if err != nil {
		return nil, err
	}
	return m.Channel(), nil
}

// BenchmarkLocalPrivacyCalibration measures one uncached LDP↔Geo-I
// budget calibration of Section VII-B at the served d=15, ε=3.5: the DAM
// target and the bisection that semgeoi.CalibrateToDAM runs on a memo
// miss, which a SEM-Geo-I daemon runs before it listens.
func BenchmarkLocalPrivacyCalibration(b *testing.B) {
	dom := benchDomain(b, 15)
	build := func(x float64) (*fo.Channel, error) { return semGeoIChannel(dom, x) }
	for i := 0; i < b.N; i++ {
		dam, err := sam.NewDAM(dom, 3.5)
		if err != nil {
			b.Fatal(err)
		}
		target, err := localprivacy.Compute(dom, dam.Channel())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := localprivacy.Calibrate(dom, target, build, 1e-2, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalPrivacyCompute measures one LP evaluation, the step the
// calibration repeats, on a SEM-Geo-I channel. The budget is near the
// ε′ calibrated at d=15, ε=3.5; the dense evaluation's cost does not
// depend on it.
func BenchmarkLocalPrivacyCompute(b *testing.B) {
	for _, d := range []int{15, 20} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			dom := benchDomain(b, d)
			ch, err := semGeoIChannel(dom, 0.8)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := localprivacy.Compute(dom, ch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
