package em

import (
	"math"
	"testing"

	"dpspatial/internal/fo"
	"dpspatial/internal/rng"
)

// convTestChannel builds a ConvChannel with the SEM-Geo-I kernel shape
// and the exact dense channel it replaces.
func convTestChannel(t *testing.T, d int, eps float64) (*fo.ConvChannel, *fo.Channel) {
	t.Helper()
	kern := fo.DisplacementKernel(d, func(dx, dy int) float64 {
		return math.Exp(-eps * math.Hypot(float64(dx), float64(dy)) / 2)
	})
	conv, err := fo.NewConvChannel(d, kern)
	if err != nil {
		t.Fatalf("NewConvChannel: %v", err)
	}
	return conv, conv.Dense()
}

// TestEstimateConvMatchesDense: the FFT decode must agree with the exact
// dense decode to ≤ 1e-9 across grid sizes, including odd sides.
func TestEstimateConvMatchesDense(t *testing.T) {
	r := rng.New(404)
	for _, d := range []int{3, 5, 8, 11} {
		conv, dense := convTestChannel(t, d, 1.4)
		counts := randomCounts(r, conv.NumOutputs())
		opts := &Options{MaxIter: 60}
		got, err := Estimate(conv, counts, opts)
		if err != nil {
			t.Fatalf("d=%d conv estimate: %v", d, err)
		}
		want, err := Estimate(dense, counts, opts)
		if err != nil {
			t.Fatalf("d=%d dense estimate: %v", d, err)
		}
		if diff := maxAbsDiff(got, want); diff > 1e-9 {
			t.Errorf("d=%d: conv and dense EM estimates differ by %g", d, diff)
		}
	}
}

// TestEstimateConvWarmStart: the warm-start path must work unchanged on
// the conv channel (the windowed/continual estimation tier relies on it).
func TestEstimateConvWarmStart(t *testing.T) {
	r := rng.New(406)
	conv, _ := convTestChannel(t, 7, 1.1)
	counts := randomCounts(r, conv.NumOutputs())
	cold, stats, err := EstimateWithStats(conv, counts, &Options{MaxIter: 200, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Skip("cold decode did not converge; warm-start comparison meaningless")
	}
	_, warmStats, err := EstimateWithStats(conv, counts, &Options{MaxIter: 200, Tol: 1e-10, Init: cold})
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.Iterations > stats.Iterations {
		t.Errorf("warm start took %d iterations, cold %d", warmStats.Iterations, stats.Iterations)
	}
}
