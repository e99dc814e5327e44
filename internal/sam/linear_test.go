package sam

import (
	"math"
	"testing"

	"dpspatial/internal/fo"
	"dpspatial/internal/rng"
)

// TestLinearMatchesDense: the structured channel must be the dense
// channel, bit for bit, for every SAM variant.
func TestLinearMatchesDense(t *testing.T) {
	dom := testDomain(t, 6)
	for name, build := range map[string]func() (*Mechanism, error){
		"DAM":    func() (*Mechanism, error) { return NewDAM(dom, 2.5) },
		"DAM-NS": func() (*Mechanism, error) { return NewDAMNS(dom, 2.5) },
		"HUEM":   func() (*Mechanism, error) { return NewHUEM(dom, 2.5, WithBHat(2)) },
	} {
		m, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lin, dense := m.Linear(), m.Channel()
		if lin.NumInputs() != dense.In || lin.NumOutputs() != dense.Out {
			t.Fatalf("%s: dimensions differ", name)
		}
		for i := 0; i < dense.In; i++ {
			got, want := lin.Row(i), dense.Row(i)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s: row %d col %d: %v != %v", name, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestDenseMaterialisesLazily: construction must not build the dense
// matrix; only an explicit Channel() call pays for it.
func TestDenseMaterialisesLazily(t *testing.T) {
	dom := testDomain(t, 12)
	m, err := NewDAM(dom, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	if m.dense != nil {
		t.Fatal("dense channel materialised during construction")
	}
	if _, err := m.Samplers(); err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	m.Perturb(3, r)
	if _, err := m.Estimate(someCounts(m, 5000)); err != nil {
		t.Fatal(err)
	}
	if m.dense != nil {
		t.Fatal("sampling or estimation materialised the dense channel")
	}
	if m.Channel() == nil || m.dense == nil {
		t.Fatal("Channel() did not materialise the dense matrix")
	}
}

func someCounts(m *Mechanism, n int) []float64 {
	r := rng.New(77)
	counts := make([]float64, m.NumOutputs())
	for k := 0; k < n; k++ {
		counts[r.Intn(len(counts))]++
	}
	return counts
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
