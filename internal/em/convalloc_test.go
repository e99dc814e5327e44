//go:build !race

package em

import (
	"math"
	"runtime/debug"
	"testing"

	"dpspatial/internal/rng"
)

// TestEstimateConvIterationsAllocateNothing pins the steady state that
// TestEstimateIterationsAllocateNothing leaves out: the conv channel's
// FFT scratch lives in a sync.Pool, which drops items at a garbage
// collection (and at random under the race detector, hence the build
// tag). With the collector paused the pool keeps its scratch, so a
// 10-iteration SEM-Geo-I decode at d = 15 must allocate exactly as often
// as a 200-iteration one: once warm, a sweep costs no allocation.
func TestEstimateConvIterationsAllocateNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := rng.New(62)
	conv, _ := convTestChannel(t, 15, 1.7)
	counts := randomCounts(r, conv.NumOutputs())
	allocs := func(iters int) float64 {
		// A Tol no delta can undercut keeps every decode running for
		// exactly iters iterations.
		opts := &Options{MaxIter: iters, Tol: math.SmallestNonzeroFloat64}
		if _, stats, err := EstimateWithStats(conv, counts, opts); err != nil || stats.Iterations != iters {
			t.Fatalf("%d-iteration decode ran %d iterations (err %v)", iters, stats.Iterations, err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Estimate(conv, counts, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(10), allocs(200); short != long {
		t.Errorf("%v allocations for 10 iterations, %v for 200", short, long)
	}
}
