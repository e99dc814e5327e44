package localprivacy_test

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dpspatial/internal/baselines"
	"dpspatial/internal/fo"
	"dpspatial/internal/grid"
	"dpspatial/internal/localprivacy"
	"dpspatial/internal/sam"
	"dpspatial/internal/semgeoi"
)

func testDomain(t *testing.T, d int) grid.Domain {
	t.Helper()
	dom, err := grid.NewDomain(0, 0, float64(d), d)
	if err != nil {
		t.Fatal(err)
	}
	return dom
}

func TestComputeIdentityChannelHasZeroPrivacy(t *testing.T) {
	// A noiseless channel lets the adversary locate the user exactly:
	// LP = 0.
	dom := testDomain(t, 3)
	n := dom.NumCells()
	ch := fo.NewChannel(n, n)
	for i := 0; i < n; i++ {
		ch.Set(i, i, 1)
	}
	lp, err := localprivacy.Compute(dom, ch)
	if err != nil {
		t.Fatal(err)
	}
	if lp > 1e-12 {
		t.Fatalf("identity-channel LP = %v, want 0", lp)
	}
}

func TestComputeUniformChannelHasMaxPrivacy(t *testing.T) {
	// A channel that ignores its input gives the adversary nothing: LP
	// equals the prior expected distance between two uniform cells.
	dom := testDomain(t, 3)
	n := dom.NumCells()
	ch := fo.NewChannel(n, 1)
	for i := 0; i < n; i++ {
		ch.Set(i, 0, 1)
	}
	lp, err := localprivacy.Compute(dom, ch)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want += dom.CellAt(i).CenterDist(dom.CellAt(j))
		}
	}
	want /= float64(n * n)
	if math.Abs(lp-want) > 1e-9 {
		t.Fatalf("uniform-channel LP = %v, want prior %v", lp, want)
	}
}

func TestComputeMonotoneInEpsilonForDAM(t *testing.T) {
	dom := testDomain(t, 4)
	prev := math.Inf(1)
	for _, eps := range []float64{0.5, 1, 2, 4} {
		m, err := sam.NewDAM(dom, eps)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := localprivacy.Compute(dom, m.Channel())
		if err != nil {
			t.Fatal(err)
		}
		if lp >= prev {
			t.Fatalf("LP(eps=%v)=%v did not decrease from %v", eps, lp, prev)
		}
		prev = lp
	}
}

func TestComputeMonotoneInEpsilonForSEM(t *testing.T) {
	dom := testDomain(t, 4)
	prev := math.Inf(1)
	for _, eps := range []float64{0.3, 1, 3} {
		m, err := semgeoi.New(dom, eps)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := localprivacy.Compute(dom, m.Channel())
		if err != nil {
			t.Fatal(err)
		}
		if lp >= prev {
			t.Fatalf("LP(eps=%v)=%v did not decrease from %v", eps, lp, prev)
		}
		prev = lp
	}
}

func TestComputeChannelSizeMismatch(t *testing.T) {
	dom := testDomain(t, 3)
	ch := fo.NewChannel(4, 4)
	if _, err := localprivacy.Compute(dom, ch); err == nil {
		t.Fatal("wrong channel size accepted")
	}
}

func TestCalibrateMatchesDAMPrivacy(t *testing.T) {
	// The Section VII-B experiment setup: pick ε for DAM, find the ε' at
	// which SEM-Geo-I has equal local privacy.
	dom := testDomain(t, 4)
	dam, err := sam.NewDAM(dom, 2.1)
	if err != nil {
		t.Fatal(err)
	}
	target, err := localprivacy.Compute(dom, dam.Channel())
	if err != nil {
		t.Fatal(err)
	}
	build := func(x float64) (*fo.Channel, error) {
		m, err := semgeoi.New(dom, x)
		if err != nil {
			return nil, err
		}
		return m.Channel(), nil
	}
	epsPrime, err := localprivacy.Calibrate(dom, target, build, 1e-3, 50)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := build(epsPrime)
	if err != nil {
		t.Fatal(err)
	}
	got, err := localprivacy.Compute(dom, ch)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-target) > 0.02*target {
		t.Fatalf("calibrated LP %v, target %v (eps'=%v)", got, target, epsPrime)
	}
}

func TestCalibrateClampsOutOfRangeTargets(t *testing.T) {
	dom := testDomain(t, 3)
	build := func(x float64) (*fo.Channel, error) {
		m, err := semgeoi.New(dom, x)
		if err != nil {
			return nil, err
		}
		return m.Channel(), nil
	}
	// Absurdly high target (more private than the most private bracket
	// end): calibrate returns the bracket's private end.
	x, err := localprivacy.Calibrate(dom, 1e6, build, 0.01, 10)
	if err != nil {
		t.Fatal(err)
	}
	if x != 0.01 {
		t.Fatalf("high target returned %v, want lo end 0.01", x)
	}
	// Near-zero target: least private end.
	x, err = localprivacy.Calibrate(dom, 1e-9, build, 0.01, 10)
	if err != nil {
		t.Fatal(err)
	}
	if x != 10 {
		t.Fatalf("low target returned %v, want hi end 10", x)
	}
}

func TestCalibrateErrors(t *testing.T) {
	dom := testDomain(t, 3)
	build := func(x float64) (*fo.Channel, error) {
		m, err := semgeoi.New(dom, x)
		if err != nil {
			return nil, err
		}
		return m.Channel(), nil
	}
	if _, err := localprivacy.Calibrate(dom, 0, build, 0.1, 1); err == nil {
		t.Fatal("zero target accepted")
	}
	if _, err := localprivacy.Calibrate(dom, 1, build, 1, 0.5); err == nil {
		t.Fatal("inverted bracket accepted")
	}
	if _, err := localprivacy.Calibrate(dom, 1, build, 0, 1); err == nil {
		t.Fatal("zero lo accepted")
	}
}

// referenceLP is Compute as it was before the column-blocked kernel,
// loop for loop: each column's terms read with stride Out through At,
// zero entries skipped. The kernel must match its bits.
func referenceLP(dom grid.Domain, ch *fo.Channel) (float64, error) {
	n := dom.NumCells()
	if ch.In != n {
		return 0, fmt.Errorf("localprivacy: channel has %d inputs for %d cells", ch.In, n)
	}

	// Pairwise distances.
	dist := make([]float64, n*n)
	for i := 0; i < n; i++ {
		ci := dom.CellAt(i)
		for j := 0; j < n; j++ {
			dist[i*n+j] = ci.CenterDist(dom.CellAt(j))
		}
	}

	// Each output column contributes independently; fan the O(n²) inner
	// sums out across workers (the harness calls this inside a
	// calibration bisection, so it is the hot path at d ≥ 15). Each
	// column's term lands in its own slot and the slots are added in
	// column order, so the result does not depend on the worker count.
	fn := float64(n)
	workers := runtime.GOMAXPROCS(0)
	if workers > ch.Out {
		workers = ch.Out
	}
	terms := make([]float64, ch.Out)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for o := w; o < ch.Out; o += workers {
				colSum := 0.0
				for i := 0; i < n; i++ {
					colSum += ch.At(i, o)
				}
				if colSum == 0 {
					continue // unreachable output
				}
				inner := 0.0
				for i := 0; i < n; i++ {
					pi := ch.At(i, o)
					if pi == 0 {
						continue
					}
					row := dist[i*n:]
					for j := 0; j < n; j++ {
						pj := ch.At(j, o)
						if pj == 0 {
							continue
						}
						inner += pi * pj * row[j]
					}
				}
				terms[o] = inner / (fn * colSum)
			}
		}(w)
	}
	wg.Wait()
	lp := 0.0
	for _, t := range terms {
		lp += t
	}
	return lp, nil
}

// lpCase is one channel the kernel is checked on.
type lpCase struct {
	name string
	dom  grid.Domain
	ch   *fo.Channel
}

// mechanismCases returns the dense channels of every per-cell mechanism
// at each grid side: DAM at d = 15 has 437 outputs, not a multiple of
// the four-column block.
func mechanismCases(t *testing.T, sides ...int) []lpCase {
	t.Helper()
	type mechanism interface{ Channel() *fo.Channel }
	var cases []lpCase
	for _, d := range sides {
		dom := testDomain(t, d)
		for _, mk := range []struct {
			name  string
			build func() (mechanism, error)
		}{
			{"DAM", func() (mechanism, error) { return sam.NewDAM(dom, 3.5) }},
			{"DAM-NS", func() (mechanism, error) { return sam.NewDAMNS(dom, 2.1) }},
			{"HUEM", func() (mechanism, error) { return sam.NewHUEM(dom, 1.5) }},
			{"SEM-Geo-I", func() (mechanism, error) { return semgeoi.New(dom, 0.7) }},
			{"PlanarLaplace", func() (mechanism, error) { return baselines.NewPlanarLaplace(dom, 1.2) }},
		} {
			m, err := mk.build()
			if err != nil {
				t.Fatalf("%s d=%d: %v", mk.name, d, err)
			}
			cases = append(cases, lpCase{fmt.Sprintf("%s d=%d", mk.name, d), dom, m.Channel()})
		}
	}
	return cases
}

// handBuiltCases returns row-stochastic channels over a 3×3 grid with
// zero entries, an all-zero column, one output, and output counts on
// both sides of a multiple of four.
func handBuiltCases(t *testing.T) []lpCase {
	t.Helper()
	dom := testDomain(t, 3)
	n := dom.NumCells()
	var cases []lpCase
	for _, out := range []int{1, 3, 4, 5, 9, 11} {
		ch := fo.NewChannel(n, out)
		for i := 0; i < n; i++ {
			row := ch.Row(i)
			sum := 0.0
			for o := range row {
				// Zero wherever (i+o) is a multiple of 3, and all of
				// column 1; the rest are distinct positive weights.
				if o == 1 && out > 1 || (i+o)%3 == 0 && out > 2 {
					continue
				}
				row[o] = 1 + float64((7*i+3*o)%11)/7
				sum += row[o]
			}
			for o := range row {
				row[o] /= sum
			}
		}
		cases = append(cases, lpCase{fmt.Sprintf("hand-built out=%d", out), dom, ch})
	}
	return cases
}

func TestComputeMatchesReferenceBits(t *testing.T) {
	cases := append(mechanismCases(t, 1, 2, 3, 7, 15), handBuiltCases(t)...)
	want := make([]float64, len(cases))
	for k, c := range cases {
		lp, err := referenceLP(c.dom, c.ch)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		want[k] = lp
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for k, c := range cases {
			got, err := localprivacy.Compute(c.dom, c.ch)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if math.Float64bits(got) != math.Float64bits(want[k]) {
				t.Errorf("GOMAXPROCS=%d %s: LP %v (%#x), reference %v (%#x)", procs, c.name, got, math.Float64bits(got), want[k], math.Float64bits(want[k]))
			}
		}
	}
}

func TestComputeRefusesInvalidEntries(t *testing.T) {
	// Row 2 of an identity channel replaced by a row with one bad entry;
	// the negative row still sums to 1.
	dom := testDomain(t, 2)
	for _, row := range [][]float64{
		{0.5, 0.75, 0, -0.25},
		{0.5, 0.5, 0, math.NaN()},
		{0.5, 0.5, 0, math.Inf(1)},
	} {
		ch := fo.NewChannel(4, 4)
		for i := 0; i < 4; i++ {
			ch.Set(i, i, 1)
		}
		copy(ch.Row(2), row)
		_, err := localprivacy.Compute(dom, ch)
		if err == nil || !strings.HasPrefix(err.Error(), "localprivacy: fo: channel row 2 ") {
			t.Errorf("row %v: error %v, want the row-2 refusal", row, err)
		}
	}
}

func TestCalibrateRunsTwentyEightEvaluations(t *testing.T) {
	// At the served (d, ε) = (15, 3.5), semgeoi.CalibrateToDAM's
	// bisection evaluates both bracket ends and 26 midpoints.
	dom := testDomain(t, 15)
	dam, err := sam.NewDAM(dom, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	target, err := localprivacy.Compute(dom, dam.Channel())
	if err != nil {
		t.Fatal(err)
	}
	builds := 0
	_, err = localprivacy.Calibrate(dom, target, func(x float64) (*fo.Channel, error) {
		builds++
		m, err := semgeoi.New(dom, x)
		if err != nil {
			return nil, err
		}
		return m.Channel(), nil
	}, 1e-2, 60)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 28 {
		t.Errorf("calibration built %d channels, want 2 bracket ends and 26 midpoints", builds)
	}
}

func TestConcurrentCalibrateAndCompute(t *testing.T) {
	// Each call owns its buffers: calls from several goroutines at once
	// answer as one call alone does.
	dom := testDomain(t, 7)
	dam, err := sam.NewDAM(dom, 2.1)
	if err != nil {
		t.Fatal(err)
	}
	build := func(x float64) (*fo.Channel, error) {
		m, err := semgeoi.New(dom, x)
		if err != nil {
			return nil, err
		}
		return m.Channel(), nil
	}
	run := func() (lp, x float64, err error) {
		if lp, err = localprivacy.Compute(dom, dam.Channel()); err != nil {
			return 0, 0, err
		}
		x, err = localprivacy.Calibrate(dom, lp, build, 1e-2, 60)
		return lp, x, err
	}
	wantLP, wantX, err := run()
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lp, x, err := run()
			if err != nil {
				t.Error(err)
				return
			}
			if math.Float64bits(lp) != math.Float64bits(wantLP) || math.Float64bits(x) != math.Float64bits(wantX) {
				t.Errorf("concurrent call: LP %v, ε' %v; one call alone: LP %v, ε' %v", lp, x, wantLP, wantX)
			}
		}()
	}
	wg.Wait()
}
