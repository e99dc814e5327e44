package sam

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"dpspatial/internal/em"
	"dpspatial/internal/fo"
	"dpspatial/internal/geom"
	"dpspatial/internal/grid"
	"dpspatial/internal/rng"
)

// referenceChannel is buildChannel as it stood before the channel became
// one translated footprint, kept verbatim apart from returning the
// channel and building the output index map buildOutputDomain used to
// keep: a UniformSparse assembled one input row at a time.
// TestLinearMatchesDense holds the footprint to its bits.
func referenceChannel(m *Mechanism) (*fo.UniformSparse, error) {
	outIdx := make(map[geom.Cell]int, len(m.out))
	for i, c := range m.out {
		outIdx[c] = i
	}
	nIn := m.dom.NumCells()
	nOut := len(m.out)
	b := fo.NewUniformSparseBuilder(nIn, nOut)
	idx := make([]int, len(m.offsets))
	val := make([]float64, len(m.offsets))
	for i := 0; i < nIn; i++ {
		base := m.dom.CellAt(i)
		for k, wo := range m.offsets {
			idx[k] = outIdx[base.Add(wo.off)]
			val[k] = wo.weight * m.qHat
		}
		b.Row(m.qHat, idx, val)
	}
	linear, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("sam: %w", err)
	}
	return linear, nil
}

// samVariants are the three SAM instances in a fixed order.
var samVariants = []struct {
	name  string
	build func(grid.Domain, float64, ...Option) (*Mechanism, error)
}{{"DAM", NewDAM}, {"DAM-NS", NewDAMNS}, {"HUEM", NewHUEM}}

// TestLinearMatchesDense: the footprint channel must be the row-by-row
// channel it replaced (referenceChannel) bit for bit — its rows, both
// sweeps on inputs with zeros, and the cold, warm and smoothed decodes —
// and its dense matrix must hold the same rows. It covers every SAM
// variant at d ∈ {1, 2, 3, 4, 7, 15, 40} and ε ∈ {0.5, 1.5, 3.5}, with
// the default radius, b̂ = 0 and Figure 8's radii (⌊m·b̌⌋ at d = 15,
// ε = 3.5). The reference holds d²·K overrides, so d = 40 at ε ≤ 1.5
// with the default radius (3.3 M and 10 M of them) is left out. Decodes
// run the mechanism's own 1,000 EM iterations up to 256 overrides and at
// the setting loadbench serves (DAM, d = 15, ε = 3.5, default radius),
// and 3 iterations of the same EM elsewhere.
func TestLinearMatchesDense(t *testing.T) {
	bOpt, err := OptimalB(3.5, 15)
	if err != nil {
		t.Fatal(err)
	}
	radii := []struct {
		label string
		opts  []Option
	}{{"default", nil}, {"b=0", []Option{WithBHat(0)}}}
	for _, mult := range []float64{0.33, 0.67, 1.0, 1.33, 1.67} {
		b := int(math.Floor(mult * bOpt))
		radii = append(radii, struct {
			label string
			opts  []Option
		}{fmt.Sprintf("b=%d", b), []Option{WithBHat(b)}})
	}
	for _, v := range samVariants {
		for _, d := range []int{1, 2, 3, 4, 7, 15, 40} {
			dom := testDomain(t, d)
			for _, eps := range []float64{0.5, 1.5, 3.5} {
				for _, rad := range radii {
					if d == 40 && eps < 3.5 && rad.opts == nil {
						continue
					}
					name := fmt.Sprintf("%s d=%d eps=%g %s", v.name, d, eps, rad.label)
					m, err := v.build(dom, eps, rad.opts...)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					nnz := d * d * len(m.offsets)
					ref, err := referenceChannel(m)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					checkChannelBits(t, name, m, ref)
					served := v.name == "DAM" && d == 15 && eps == 3.5 && rad.opts == nil
					smoothed := func() (*Mechanism, error) {
						return v.build(dom, eps, append(rad.opts, WithSmoothing())...)
					}
					checkDecodeBits(t, name, m, ref, smoothed, nnz <= 256 || served)
				}
			}
		}
	}
}

// sameBits fails unless got and want hold the same float64 bits.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("%s: entry %d is %v, want %v", what, i, got[i], want[i])
	}
}

// firstDiff returns the first index at which got and want hold different
// float64 bits (len(want) when only their lengths differ), or −1.
func firstDiff(got, want []float64) int {
	if len(got) != len(want) {
		return len(want)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// withZeros returns n values in [0, scale), about a quarter of them zero.
func withZeros(r *rng.RNG, n int, scale float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		if r.Intn(4) != 0 {
			v[i] = r.Float64() * scale
		}
	}
	return v
}

// checkChannelBits compares rows and both sweeps with the reference, and
// at d ≤ 7 the dense matrix's rows too. Past d = 15 it compares the rows
// of each grid row's first, middle and last cell, which still reach
// every (grid row, offset) pair the channel stores.
func checkChannelBits(t *testing.T, name string, m *Mechanism, ref *fo.UniformSparse) {
	t.Helper()
	lin := m.Linear()
	if lin.NumInputs() != ref.NumInputs() || lin.NumOutputs() != ref.NumOutputs() {
		t.Fatalf("%s: dimensions differ", name)
	}
	want := make([]float64, ref.NumOutputs())
	d := m.dom.D
	for i := 0; i < ref.NumInputs(); i++ {
		if x := i % d; d > 15 && x != 0 && x != d/2 && x != d-1 {
			continue
		}
		ref.RowInto(i, want)
		if j := firstDiff(lin.Row(i), want); j >= 0 {
			t.Fatalf("%s: row %d differs at output %d", name, i, j)
		}
	}
	if d <= 7 {
		dense := m.Channel()
		for i := 0; i < dense.In; i++ {
			ref.RowInto(i, want)
			if j := firstDiff(dense.Row(i), want); j >= 0 {
				t.Fatalf("%s: dense row %d differs at output %d", name, i, j)
			}
		}
	}
	r := rng.New(uint64(ref.NumInputs()*7919 + ref.NumOutputs()))
	got := make([]float64, ref.NumOutputs())
	gotB, wantB := make([]float64, ref.NumInputs()), make([]float64, ref.NumInputs())
	for trial := 0; trial < 2; trial++ {
		p := withZeros(r, ref.NumInputs(), 1)
		lin.Forward(p, got)
		ref.Forward(p, want)
		sameBits(t, name+": Forward", got, want)
		w := withZeros(r, ref.NumOutputs(), 10)
		lin.Backward(w, gotB)
		ref.Backward(w, wantB)
		sameBits(t, name+": Backward", gotB, wantB)
	}
}

// checkDecodeBits compares the cold, warm-started and smoothed decodes of
// one count vector with EM on the reference: through the mechanism's own
// decodes when full is set, and otherwise through 3 EM iterations with
// the same options.
func checkDecodeBits(t *testing.T, name string, m *Mechanism, ref *fo.UniformSparse, smoothed func() (*Mechanism, error), full bool) {
	t.Helper()
	r := rng.New(uint64(ref.NumOutputs()))
	agg := m.NewAggregate()
	counts := agg.Planes[0]
	for j := range counts {
		counts[j] = float64(r.Intn(40))
	}
	counts[0]++
	init, err := grid.HistFromMass(m.dom, withZeros(r, m.NumInputs(), 1))
	if err != nil {
		t.Fatal(err)
	}
	init.Mass[0] = 1
	decodes := []struct {
		label string
		opts  em.Options
		mech  func() (*grid.Hist2D, error)
	}{
		{"cold", em.Options{}, func() (*grid.Hist2D, error) { return m.EstimateFromAggregate(agg) }},
		{"warm", em.Options{Init: init.Mass}, func() (*grid.Hist2D, error) {
			h, _, err := m.EstimateFromAggregateWarm(agg, init)
			return h, err
		}},
		{"smoothed", em.Options{Smoothing: em.Smoother2D(m.dom.D)}, func() (*grid.Hist2D, error) {
			ms, err := smoothed()
			if err != nil {
				return nil, err
			}
			return ms.EstimateFromAggregate(agg)
		}},
	}
	for _, dec := range decodes {
		if !full {
			dec.opts.MaxIter = 3
		}
		want, err := em.Estimate(ref, counts, &dec.opts)
		if err != nil {
			t.Fatalf("%s: %s reference decode: %v", name, dec.label, err)
		}
		var got []float64
		if full {
			var h *grid.Hist2D
			if h, err = dec.mech(); err == nil {
				got = h.Mass
			}
		} else {
			got, err = em.Estimate(m.Linear(), counts, &dec.opts)
		}
		if err != nil {
			t.Fatalf("%s: %s decode: %v", name, dec.label, err)
		}
		sameBits(t, name+": "+dec.label+" decode", got, want)
	}
}

// servedDecode builds the setting loadbench's refresh serves (DAM, d =
// 15, ε = 3.5) and an aggregate of 20,000 reports from a skewed truth.
func servedDecode(t *testing.T) (*Mechanism, *fo.Aggregate) {
	t.Helper()
	m, err := NewDAM(testDomain(t, 15), 3.5)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, m.NumInputs())
	for i := range truth {
		truth[i] = float64(1 + (i*i)%97)
	}
	agg := m.NewAggregate()
	if err := fo.Accumulate(m, agg, truth, rng.New(8)); err != nil {
		t.Fatal(err)
	}
	return m, agg
}

// TestFootprintSweepsAllocateNothing: neither sweep of the served channel
// allocates.
func TestFootprintSweepsAllocateNothing(t *testing.T) {
	m, _ := servedDecode(t)
	lin := m.Linear()
	r := rng.New(4)
	p, w := withZeros(r, lin.NumInputs(), 1), withZeros(r, lin.NumOutputs(), 10)
	out, back := make([]float64, lin.NumOutputs()), make([]float64, lin.NumInputs())
	if n := testing.AllocsPerRun(20, func() { lin.Forward(p, out) }); n != 0 {
		t.Errorf("Forward: %v allocations", n)
	}
	if n := testing.AllocsPerRun(20, func() { lin.Backward(w, back) }); n != 0 {
		t.Errorf("Backward: %v allocations", n)
	}
}

// TestConcurrentDecodesMatchSolo: four goroutines decoding through one
// Mechanism, two cold and two warm, each return the bits of the same
// decode run alone.
func TestConcurrentDecodesMatchSolo(t *testing.T) {
	m, agg := servedDecode(t)
	cold, err := m.EstimateFromAggregate(agg)
	if err != nil {
		t.Fatal(err)
	}
	warm, _, err := m.EstimateFromAggregateWarm(agg, cold)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*grid.Hist2D, 4)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				got[g], errs[g] = m.EstimateFromAggregate(agg)
			} else {
				got[g], _, errs[g] = m.EstimateFromAggregateWarm(agg, cold)
			}
		}()
	}
	wg.Wait()
	for g, h := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		want := cold
		if g%2 == 1 {
			want = warm
		}
		sameBits(t, fmt.Sprintf("goroutine %d", g), h.Mass, want.Mass)
	}
}

// TestPerturbMatchesSamplerStream: Perturb must consume exactly the
// cached alias samplers' stream — the same draw Report performs.
func TestPerturbMatchesSamplerStream(t *testing.T) {
	dom := testDomain(t, 5)
	m, err := NewDAM(dom, 2)
	if err != nil {
		t.Fatal(err)
	}
	samplers, err := m.Samplers()
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := rng.New(9), rng.New(9)
	for k := 0; k < 500; k++ {
		in := k % m.NumInputs()
		if got, want := m.Perturb(in, r1), samplers[in].Draw(r2); got != want {
			t.Fatalf("draw %d: Perturb %d, sampler %d", k, got, want)
		}
	}
}

// TestEstimateFromAggregateWarmEndToEnd drives the incremental lifecycle
// the ROADMAP asks for: collect shard 1, estimate, merge shard 2, then
// re-estimate warm-started from the pre-merge estimate. The warm start
// must converge to the cold-start fixed point in fewer EM iterations.
func TestEstimateFromAggregateWarmEndToEnd(t *testing.T) {
	// d=4, ε=3.5: informative enough for EM to converge within the
	// default iteration budget, so iteration counts are comparable.
	dom := testDomain(t, 4)
	m, err := NewDAM(dom, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, m.NumInputs())
	r := rng.New(21)
	for i := range truth {
		truth[i] = float64(20 + r.Intn(300))
	}
	shard1 := m.NewAggregate()
	if err := fo.Accumulate(m, shard1, truth, r); err != nil {
		t.Fatal(err)
	}
	shard2 := m.NewAggregate()
	if err := fo.Accumulate(m, shard2, truth, r); err != nil {
		t.Fatal(err)
	}

	est1, stats1, err := m.EstimateFromAggregateWarm(shard1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stats1.Converged {
		t.Fatalf("shard-1 estimate did not converge in %d iterations", stats1.Iterations)
	}

	merged := shard1.Clone()
	if err := merged.Merge(shard2); err != nil {
		t.Fatal(err)
	}
	cold, coldStats, err := m.EstimateFromAggregateWarm(merged, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, warmStats, err := m.EstimateFromAggregateWarm(merged, est1)
	if err != nil {
		t.Fatal(err)
	}
	if !coldStats.Converged || !warmStats.Converged {
		t.Fatalf("EM did not converge (cold %+v, warm %+v)", coldStats, warmStats)
	}
	if warmStats.Iterations >= coldStats.Iterations {
		t.Fatalf("warm start took %d iterations, cold start took %d",
			warmStats.Iterations, coldStats.Iterations)
	}
	worst := 0.0
	for i := range cold.Mass {
		if d := math.Abs(cold.Mass[i] - warm.Mass[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-6 {
		t.Fatalf("warm start fixed point diverges from cold start by %v", worst)
	}
	// The warm decode must still reject incompatible inputs.
	if _, _, err := m.EstimateFromAggregateWarm(shard1, nil); err != nil {
		t.Fatal(err)
	}
	other, err := NewDAM(testDomain(t, 3), 3.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := other.EstimateFromAggregateWarm(shard1, nil); err == nil {
		t.Fatal("incompatible aggregate accepted")
	}
	wrongInit, err := NewDAM(testDomain(t, 3), 3.5)
	if err != nil {
		t.Fatal(err)
	}
	wrongHist, _, err := wrongInit.EstimateFromAggregateWarm(func() *fo.Aggregate {
		agg := wrongInit.NewAggregate()
		tc := make([]float64, wrongInit.NumInputs())
		tc[0] = 10
		if err := fo.Accumulate(wrongInit, agg, tc, rng.New(2)); err != nil {
			t.Fatal(err)
		}
		return agg
	}(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.EstimateFromAggregateWarm(merged, wrongHist); err == nil {
		t.Fatal("warm start from a mismatched domain accepted")
	}
}
