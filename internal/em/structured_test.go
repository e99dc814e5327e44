package em

import (
	"math"
	"testing"

	"dpspatial/internal/fo"
	"dpspatial/internal/geom"
	"dpspatial/internal/rng"
)

// randomUniformSparse builds a valid random uniform-plus-sparse channel.
func randomUniformSparse(t *testing.T, r *rng.RNG, in, out int) *fo.UniformSparse {
	t.Helper()
	b := fo.NewUniformSparseBuilder(in, out)
	for i := 0; i < in; i++ {
		nnz := r.Intn(out/2 + 1)
		cols := r.Perm(out)[:nnz]
		w0 := 0.1 + r.Float64()
		raw := make([]float64, nnz)
		total := w0 * float64(out-nnz)
		for k := range raw {
			raw[k] = r.Float64() * 3
			total += raw[k]
		}
		idx := make([]int, nnz)
		val := make([]float64, nnz)
		for k, c := range cols {
			idx[k] = c
			val[k] = raw[k] / total
		}
		b.Row(w0/total, idx, val)
	}
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func randomCounts(r *rng.RNG, out int) []float64 {
	counts := make([]float64, out)
	for j := range counts {
		if r.Float64() < 0.3 {
			continue // keep some zeros: the M-step guards must agree too
		}
		counts[j] = float64(r.Intn(500))
	}
	counts[r.Intn(out)] += 100 // guarantee mass
	return counts
}

func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestEstimateStructuredMatchesDense is the dense-vs-structured
// agreement property: for random uniform-plus-sparse channels and random
// counts, the structured O(In + nnz) EM kernel must reproduce the dense
// kernel's estimate to within 1e-9.
func TestEstimateStructuredMatchesDense(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 15; trial++ {
		in, out := 3+r.Intn(25), 3+r.Intn(35)
		u := randomUniformSparse(t, r, in, out)
		counts := randomCounts(r, out)
		estDense, err := Estimate(u.Dense(), counts, nil)
		if err != nil {
			t.Fatal(err)
		}
		estSparse, err := Estimate(u, counts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(estDense, estSparse); d > 1e-9 {
			t.Fatalf("trial %d: structured EM diverges from dense by %v", trial, d)
		}
	}
}

// TestEstimateTwoValueMatchesDense: the GRR closed form against its
// dense matrix, with and without smoothing.
func TestEstimateTwoValueMatchesDense(t *testing.T) {
	r := rng.New(43)
	for _, eps := range []float64{0.5, 1, 3} {
		g, err := fo.NewGRR(12, eps)
		if err != nil {
			t.Fatal(err)
		}
		counts := randomCounts(r, 12)
		for _, opts := range []*Options{nil, {Smoothing: Smoother1D()}} {
			estDense, err := Estimate(g.Channel(), counts, opts)
			if err != nil {
				t.Fatal(err)
			}
			estTwo, err := Estimate(g.Linear(), counts, opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(estDense, estTwo); d > 1e-9 {
				t.Fatalf("eps=%v: two-value EM diverges from dense by %v", eps, d)
			}
		}
	}
}

// TestEstimateIterationsAllocateNothing pins the steady state of the EM
// loop: once a decode has set up its buffers, further iterations allocate
// nothing, smoothed or not, so a 10-iteration decode allocates exactly as
// often as a 200-iteration one. ConvChannel is left out: its FFT scratch
// lives in a sync.Pool, which may drop items at any time (and does under
// -race).
func TestEstimateIterationsAllocateNothing(t *testing.T) {
	r := rng.New(61)
	g, err := fo.NewGRR(12, 1)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]geom.Cell, 0, 17*17)
	for y := -1; y < 16; y++ {
		for x := -1; x < 16; x++ {
			cells = append(cells, geom.Cell{X: x, Y: y})
		}
	}
	plus := []geom.Cell{{X: 0, Y: -1}, {X: -1, Y: 0}, {X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}}
	q := 1 / float64(len(cells)-len(plus)+5*3)
	footprint, err := fo.NewFootprint(15, q, plus, []float64{3 * q, 3 * q, 3 * q, 3 * q, 3 * q}, cells)
	if err != nil {
		t.Fatal(err)
	}
	uniformSparse := randomUniformSparse(t, r, 225, 437)
	channels := []struct {
		name      string
		ch        fo.LinearChannel
		smoothing func(dst, p []float64)
	}{
		{"uniform-sparse", uniformSparse, nil},
		{"uniform-sparse smoothed", uniformSparse, Smoother1D()},
		{"footprint", footprint, nil},
		{"footprint smoothed", footprint, Smoother2D(15)},
		{"two-value", g.Linear(), nil},
		{"dense", randomUniformSparse(t, r, 40, 30).Dense(), nil},
	}
	for _, c := range channels {
		counts := randomCounts(r, c.ch.NumOutputs())
		allocs := func(iters int) float64 {
			// A Tol no delta can undercut keeps every decode running for
			// exactly iters iterations.
			opts := &Options{MaxIter: iters, Tol: math.SmallestNonzeroFloat64, Smoothing: c.smoothing}
			if _, stats, err := EstimateWithStats(c.ch, counts, opts); err != nil || stats.Iterations != iters {
				t.Fatalf("%s: %d-iteration decode ran %d iterations (err %v)", c.name, iters, stats.Iterations, err)
			}
			return testing.AllocsPerRun(5, func() {
				if _, err := Estimate(c.ch, counts, opts); err != nil {
					t.Fatal(err)
				}
			})
		}
		if short, long := allocs(10), allocs(200); short != long {
			t.Errorf("%s: %v allocations for 10 iterations, %v for 200", c.name, short, long)
		}
	}
}

// sampleCounts draws n reports from truth through the channel.
func sampleCounts(t *testing.T, ch fo.LinearChannel, truth []float64, n int, seed uint64) []float64 {
	t.Helper()
	r := rng.New(seed)
	counts := make([]float64, ch.NumOutputs())
	samplers := make([]*rng.Alias, ch.NumInputs())
	for i := range samplers {
		a, err := rng.NewAlias(ch.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		samplers[i] = a
	}
	for k := 0; k < n; k++ {
		in := rng.WeightedChoice(r, truth)
		counts[samplers[in].Draw(r)]++
	}
	return counts
}

// TestEstimateWarmStartConvergesFaster is the incremental-estimation
// regression: after merging a second shard, EM warm-started from the
// first shard's estimate must reach the same fixed point as a cold start
// in measurably fewer iterations. The channel is a GRR with an interior
// MLE so convergence is linear and iteration counts are a meaningful
// comparison (boundary MLEs converge sublinearly, where the L1-delta
// stopping rule makes iteration counts noisy for cold and warm alike).
func TestEstimateWarmStartConvergesFaster(t *testing.T) {
	g, err := fo.NewGRR(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	u := g.Linear()
	r := rng.New(59)
	truth := make([]float64, 8)
	for i := range truth {
		truth[i] = 0.5 + r.Float64()
	}
	shard1 := sampleCounts(t, u, truth, 50000, 101)
	shard2 := sampleCounts(t, u, truth, 50000, 102)
	merged := make([]float64, len(shard1))
	for j := range merged {
		merged[j] = shard1[j] + shard2[j]
	}
	opts := Options{MaxIter: 100000, Tol: 1e-9}

	est1, stats1, err := EstimateWithStats(u, shard1, &opts)
	if err != nil {
		t.Fatal(err)
	}
	if !stats1.Converged {
		t.Fatalf("first-shard EM did not converge in %d iterations", stats1.Iterations)
	}
	cold, coldStats, err := EstimateWithStats(u, merged, &opts)
	if err != nil {
		t.Fatal(err)
	}
	warmOpts := opts
	warmOpts.Init = est1
	warm, warmStats, err := EstimateWithStats(u, merged, &warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !coldStats.Converged || !warmStats.Converged {
		t.Fatalf("EM did not converge (cold %+v, warm %+v)", coldStats, warmStats)
	}
	if warmStats.Iterations >= coldStats.Iterations {
		t.Fatalf("warm start took %d iterations, cold start %d", warmStats.Iterations, coldStats.Iterations)
	}
	if d := maxAbsDiff(cold, warm); d > 1e-6 {
		t.Fatalf("warm start fixed point diverges from cold start by %v", d)
	}
}

func TestEstimateWarmStartValidation(t *testing.T) {
	g, err := fo.NewGRR(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := []float64{10, 20, 30, 20, 10}
	if _, err := Estimate(g.Linear(), counts, &Options{Init: []float64{0.5, 0.5}}); err == nil {
		t.Fatal("wrong-length warm start accepted")
	}
	if _, err := Estimate(g.Linear(), counts, &Options{Init: []float64{0.5, -0.1, 0.2, 0.2, 0.2}}); err == nil {
		t.Fatal("negative warm start accepted")
	}
	// A warm start with zero entries must not freeze support: the floor
	// keeps every input reachable.
	est, err := Estimate(g.Linear(), counts, &Options{Init: []float64{1, 0, 0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range est {
		if v <= 0 {
			t.Fatalf("input %d frozen at %v by zero warm start", i, v)
		}
	}
}
