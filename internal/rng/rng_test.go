package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must differ from the parent continuation.
	diff := false
	for i := 0; i < 64; i++ {
		if parent.Uint64() != child.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("split stream mirrors parent stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(9)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	expected := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, expected)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	for _, n := range []int{0, 1, 2, 5, 50} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	table, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	r := New(23)
	const draws = 400000
	counts := make([]float64, len(weights))
	for i := 0; i < draws; i++ {
		counts[table.Draw(r)]++
	}
	for i, w := range weights {
		got := counts[i] / draws
		want := w / 10
		if math.Abs(got-want) > 0.005 {
			t.Fatalf("category %d: frequency %v, want %v", i, got, want)
		}
	}
}

func TestAliasErrors(t *testing.T) {
	if _, err := NewAlias(nil); err == nil {
		t.Fatal("empty weights accepted")
	}
	if _, err := NewAlias([]float64{0, 0}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
	if _, err := NewAlias([]float64{1, -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewAlias([]float64{math.NaN()}); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if _, err := NewAlias([]float64{math.Inf(1)}); err == nil {
		t.Fatal("Inf weight accepted")
	}
}

func TestAliasSingleCategory(t *testing.T) {
	table, err := NewAlias([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	r := New(29)
	for i := 0; i < 100; i++ {
		if table.Draw(r) != 0 {
			t.Fatal("single-category draw not 0")
		}
	}
}

func TestAliasZeroWeightNeverDrawn(t *testing.T) {
	table, err := NewAlias([]float64{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	r := New(31)
	for i := 0; i < 100000; i++ {
		if table.Draw(r) == 1 {
			t.Fatal("zero-weight category drawn")
		}
	}
}

func TestWeightedChoiceMatchesAlias(t *testing.T) {
	weights := []float64{0.5, 0.25, 0.25}
	r := New(37)
	const draws = 200000
	counts := make([]float64, 3)
	for i := 0; i < draws; i++ {
		counts[WeightedChoice(r, weights)]++
	}
	for i, w := range weights {
		if math.Abs(counts[i]/draws-w) > 0.005 {
			t.Fatalf("category %d: frequency %v, want %v", i, counts[i]/draws, w)
		}
	}
}

func TestQuickIntnInRange(t *testing.T) {
	r := New(43)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAliasProbabilitiesNormalised(t *testing.T) {
	r := New(47)
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		any := false
		for i, v := range raw {
			weights[i] = float64(v)
			if v > 0 {
				any = true
			}
		}
		if !any {
			return true
		}
		table, err := NewAlias(weights)
		if err != nil {
			return false
		}
		v := table.Draw(r)
		return v >= 0 && v < len(weights) && weights[v] > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
