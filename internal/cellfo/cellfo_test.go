package cellfo

import (
	"math"
	"strings"
	"sync"
	"testing"

	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
	"dpspatial/internal/rng"
)

func testDomain(t *testing.T, d int) grid.Domain {
	t.Helper()
	dom, err := grid.NewDomain(0, 0, 1, d)
	if err != nil {
		t.Fatal(err)
	}
	return dom
}

// uniformSparse is randomized response over n cells in
// uniform-plus-sparse form: q everywhere, p on the diagonal.
func uniformSparse(t *testing.T, n int, eps float64) *fo.UniformSparse {
	t.Helper()
	ee := math.Exp(eps)
	p, q := ee/(ee+float64(n)-1), 1/(ee+float64(n)-1)
	b := fo.NewUniformSparseBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Row(q, []int{i}, []float64{p})
	}
	u, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// testOracles builds one oracle per channel family on a d×d grid.
func testOracles(t *testing.T, d int) map[string]*Oracle {
	t.Helper()
	dom := testDomain(t, d)
	conv, err := ExpKernel(d, 1.75)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Oracle{
		"uniform-sparse": New(dom, "test/us", uniformSparse(t, dom.NumCells(), 3.5), nil),
		"conv":           New(dom, "test/conv", conv, nil),
	}
}

func someCounts(o *Oracle, n int) []float64 {
	r := rng.New(77)
	counts := make([]float64, o.NumOutputs())
	for k := 0; k < n; k++ {
		counts[r.Intn(len(counts))]++
	}
	return counts
}

// TestDenseMaterialisesLazily: construction must not build the dense
// matrix; only an explicit Channel() call pays for it.
func TestDenseMaterialisesLazily(t *testing.T) {
	for name, o := range testOracles(t, 12) {
		if o.dense != nil {
			t.Fatalf("%s: dense channel materialised during construction", name)
		}
		if _, err := o.Samplers(); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Report(3, rng.New(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Estimate(someCounts(o, 5000)); err != nil {
			t.Fatal(err)
		}
		if o.dense != nil {
			t.Fatalf("%s: sampling or estimation materialised the dense channel", name)
		}
		if o.Channel() == nil || o.dense == nil {
			t.Fatalf("%s: Channel() did not materialise the dense matrix", name)
		}
	}
}

// TestConcurrentFirstUse: goroutines that meet a fresh oracle at once
// share one set of alias tables and one dense matrix (run under -race).
func TestConcurrentFirstUse(t *testing.T) {
	for name, o := range testOracles(t, 5) {
		const workers = 4
		samplers := make([][]*rng.Alias, workers)
		dense := make([]*fo.Channel, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s, err := o.Samplers()
				if err != nil {
					t.Error(err)
					return
				}
				samplers[w] = s
				dense[w] = o.Channel()
				if _, err := o.Report(w, rng.New(uint64(w))); err != nil {
					t.Error(err)
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for w := 1; w < workers; w++ {
			if &samplers[w][0] != &samplers[0][0] || dense[w] != dense[0] {
				t.Fatalf("%s: worker %d saw its own tables", name, w)
			}
		}
	}
}

// TestOracleRefusals: a report outside the grid, an aggregate of another
// scheme and a histogram of another grid are refused.
func TestOracleRefusals(t *testing.T) {
	oracles := testOracles(t, 4)
	o, other := oracles["conv"], oracles["uniform-sparse"]
	if _, err := o.Report(o.NumInputs(), rng.New(1)); err == nil || !strings.HasPrefix(err.Error(), "cellfo: input cell") {
		t.Errorf("out-of-range input: %v", err)
	}
	if _, err := o.EstimateFromAggregate(other.NewAggregate()); err == nil {
		t.Error("foreign aggregate accepted")
	}
	truth := &grid.Hist2D{Dom: testDomain(t, 3), Mass: make([]float64, 9)}
	if _, err := o.EstimateHist(truth, rng.New(1)); err == nil {
		t.Error("histogram of another grid accepted")
	}
}
