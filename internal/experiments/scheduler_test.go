package experiments

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestPoolRunBoundsConcurrency(t *testing.T) {
	p := newPool(3)
	var cur, max atomic.Int64
	err := p.run(64, func(i int) error {
		n := cur.Add(1)
		for {
			m := max.Load()
			if n <= m || max.CompareAndSwap(m, n) {
				break
			}
		}
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := max.Load(); got > 3 {
		t.Fatalf("observed %d concurrent jobs with 3 workers", got)
	}
}

func TestPoolRunReturnsLowestIndexError(t *testing.T) {
	p := newPool(4)
	boom := func(i int) error {
		if i == 2 || i == 7 {
			return fmt.Errorf("job %d failed", i)
		}
		return nil
	}
	err := p.run(10, boom)
	if err == nil || err.Error() != "job 2 failed" {
		t.Fatalf("got %v, want the lowest-index error", err)
	}
	if err := p.run(0, boom); err != nil {
		t.Fatalf("empty run errored: %v", err)
	}
}

func TestRunTrialPhasesOrdersResults(t *testing.T) {
	s := NewSuite(fastConfig())
	results, err := s.runTrialPhases(3,
		func(i int) (int, error) { return i + 1, nil }, // 1, 2, 3 trials
		func(i, j int) (float64, error) { return float64(10*i + j), nil })
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{0}, {10, 11}, {20, 21, 22}}
	for i := range want {
		if len(results[i]) != len(want[i]) {
			t.Fatalf("cell %d has %d results, want %d", i, len(results[i]), len(want[i]))
		}
		for j := range want[i] {
			if results[i][j] != want[i][j] {
				t.Fatalf("cell %d trial %d = %v, want %v", i, j, results[i][j], want[i][j])
			}
		}
	}
	wantErr := errors.New("plan failed")
	if _, err := s.runTrialPhases(1,
		func(i int) (int, error) { return 0, wantErr },
		func(i, j int) (float64, error) { return 0, nil }); !errors.Is(err, wantErr) {
		t.Fatalf("plan error not propagated: %v", err)
	}
}

// TestSuiteOutputWorkerCountInvariant is the scheduler's reproducibility
// contract: per-trial RNG streams derive from the trial's identity, so a
// figure renders byte-identically no matter how many workers execute it.
func TestSuiteOutputWorkerCountInvariant(t *testing.T) {
	render := func(workers int) string {
		s := NewSuite(fastConfig())
		s.pool = newPool(workers)
		fig, err := s.Fig9SmallD("SZipf")
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return fig.Format()
	}
	want := render(1)
	for _, workers := range []int{2, 5} {
		if got := render(workers); got != want {
			t.Fatalf("workers=%d output diverged:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}

func TestAblationWorkerCountInvariant(t *testing.T) {
	render := func(workers int) string {
		s := NewSuite(tinyConfig())
		s.pool = newPool(workers)
		tab, err := s.AblationBaselines("SZipf", 5, 2)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return tab.Format()
	}
	if a, b := render(1), render(4); a != b {
		t.Fatalf("worker count changed the table:\n%s\nvs:\n%s", a, b)
	}
}
