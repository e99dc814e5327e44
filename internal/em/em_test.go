package em

import (
	"math"
	"testing"

	"dpspatial/internal/fo"
	"dpspatial/internal/rng"
)

func TestEstimateIdentityChannel(t *testing.T) {
	// With a noiseless channel EM must return the empirical distribution.
	ch := fo.NewChannel(3, 3)
	for i := 0; i < 3; i++ {
		ch.Set(i, i, 1)
	}
	est, err := Estimate(ch, []float64{10, 30, 60}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.1, 0.3, 0.6}
	for i := range want {
		if math.Abs(est[i]-want[i]) > 1e-6 {
			t.Fatalf("estimate %v, want %v", est, want)
		}
	}
}

func TestEstimateRecoversThroughGRR(t *testing.T) {
	g, err := fo.NewGRR(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	ch := g.Channel()
	truth := []float64{0.4, 0.25, 0.2, 0.1, 0.05}
	// Use exact expected counts: EM must invert the channel closely.
	expected, err := ch.Apply(truth)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, len(expected))
	for j, e := range expected {
		counts[j] = e * 1e6
	}
	est, err := Estimate(ch, counts, &Options{MaxIter: 5000, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(est[i]-truth[i]) > 0.01 {
			t.Fatalf("estimate %v deviates from truth %v", est, truth)
		}
	}
}

func TestEstimateSampledReports(t *testing.T) {
	g, err := fo.NewGRR(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	ch := g.Channel()
	truth := []float64{0.55, 0.25, 0.15, 0.05}
	r := rng.New(9)
	samplers, err := ch.Samplers()
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, 4)
	const n = 200000
	for i := 0; i < n; i++ {
		in := rng.WeightedChoice(r, truth)
		counts[samplers[in].Draw(r)]++
	}
	est, err := Estimate(ch, counts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(est[i]-truth[i]) > 0.02 {
			t.Fatalf("estimate %v deviates from truth %v", est, truth)
		}
	}
}

func TestEstimateLikelihoodNonDecreasing(t *testing.T) {
	// Run EM step by step and confirm log-likelihood never decreases (a
	// core EM invariant).
	g, err := fo.NewGRR(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	ch := g.Channel()
	r := rng.New(13)
	counts := make([]float64, 6)
	for j := range counts {
		counts[j] = float64(10 + r.Intn(1000))
	}
	logLik := func(p []float64) float64 {
		ll := 0.0
		for j := 0; j < ch.Out; j++ {
			mix := 0.0
			for i := 0; i < ch.In; i++ {
				mix += p[i] * ch.At(i, j)
			}
			ll += counts[j] * math.Log(mix)
		}
		return ll
	}
	prevLL := math.Inf(-1)
	for iters := 1; iters <= 50; iters += 7 {
		est, err := Estimate(ch, counts, &Options{MaxIter: iters, Tol: 0})
		if err != nil {
			t.Fatal(err)
		}
		ll := logLik(est)
		if ll < prevLL-1e-7 {
			t.Fatalf("likelihood decreased: %v -> %v at %d iters", prevLL, ll, iters)
		}
		prevLL = ll
	}
}

func TestEstimateOutputIsDistribution(t *testing.T) {
	g, _ := fo.NewGRR(8, 0.5)
	ch := g.Channel()
	counts := make([]float64, 8)
	counts[3] = 100
	est, err := Estimate(ch, counts, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range est {
		if v < 0 {
			t.Fatalf("negative probability %v", est)
		}
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("estimate total %v", total)
	}
}

func TestEstimateErrors(t *testing.T) {
	g, _ := fo.NewGRR(3, 1)
	ch := g.Channel()
	if _, err := Estimate(ch, []float64{1, 2}, nil); err == nil {
		t.Fatal("wrong count length accepted")
	}
	if _, err := Estimate(ch, []float64{0, 0, 0}, nil); err == nil {
		t.Fatal("zero counts accepted")
	}
	if _, err := Estimate(ch, []float64{1, -1, 1}, nil); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, err := Estimate(ch, []float64{1, math.NaN(), 1}, nil); err == nil {
		t.Fatal("NaN count accepted")
	}
	if _, err := Estimate(ch, []float64{math.Inf(1), 1, 2}, nil); err == nil {
		t.Fatal("+Inf count accepted")
	}
	if _, err := Estimate(ch, []float64{math.MaxFloat64, math.MaxFloat64, 1}, nil); err == nil {
		t.Fatal("count total overflowing to +Inf accepted")
	}
}

func TestSmoother1DConservesMass(t *testing.T) {
	s := Smoother1D()
	p := []float64{0.5, 0.1, 0.1, 0.1, 0.2}
	s(p)
	total := 0.0
	for _, v := range p {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("1-D smoothing changed mass to %v", total)
	}
}

func TestSmoother1DFlattensSpike(t *testing.T) {
	s := Smoother1D()
	p := []float64{0, 0, 1, 0, 0}
	s(p)
	if p[2] >= 1 {
		t.Fatal("spike not smoothed")
	}
	if p[1] <= 0 || p[3] <= 0 {
		t.Fatal("mass did not spread to neighbours")
	}
}

func TestSmoother1DShortSlices(t *testing.T) {
	s := Smoother1D()
	p := []float64{1}
	s(p)
	if p[0] != 1 {
		t.Fatal("length-1 slice modified")
	}
	q := []float64{0.4, 0.6}
	s(q)
	if q[0] != 0.4 {
		t.Fatal("length-2 slice modified")
	}
}

func TestSmoother2DConservesMass(t *testing.T) {
	const d = 5
	s := Smoother2D(d)
	r := rng.New(17)
	p := make([]float64, d*d)
	for i := range p {
		p[i] = r.Float64()
	}
	total := 0.0
	for _, v := range p {
		total += v
	}
	s(p)
	after := 0.0
	for _, v := range p {
		after += v
	}
	if math.Abs(after-total) > 1e-9 {
		t.Fatalf("2-D smoothing changed mass %v -> %v", total, after)
	}
}

func TestSmoother2DSpreadsSpike(t *testing.T) {
	const d = 5
	s := Smoother2D(d)
	p := make([]float64, d*d)
	p[2*d+2] = 1
	s(p)
	if p[2*d+2] >= 1 {
		t.Fatal("spike not smoothed")
	}
	if p[2*d+3] <= 0 || p[3*d+2] <= 0 {
		t.Fatal("mass did not spread to 2-D neighbours")
	}
}

func TestSmoother2DIgnoresWrongSize(t *testing.T) {
	s := Smoother2D(4)
	p := []float64{1, 2, 3}
	s(p)
	if p[0] != 1 || p[1] != 2 || p[2] != 3 {
		t.Fatal("wrong-size slice modified")
	}
}

func TestEstimateWithSmoothingStillRecovers(t *testing.T) {
	g, _ := fo.NewGRR(9, 2)
	ch := g.Channel()
	truth := []float64{0.05, 0.1, 0.2, 0.3, 0.2, 0.1, 0.03, 0.01, 0.01}
	expected, err := ch.Apply(truth)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, len(expected))
	for j, e := range expected {
		counts[j] = e * 1e6
	}
	est, err := Estimate(ch, counts, &Options{Smoothing: Smoother1D(), MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	// The EMS fixed point trades likelihood against smoothness, so the
	// estimate is biased towards flatness — but it must still beat the
	// uniform baseline in total variation and keep the mode region right.
	tv := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			s += math.Abs(a[i] - b[i])
		}
		return s / 2
	}
	uniform := make([]float64, len(truth))
	for i := range uniform {
		uniform[i] = 1 / float64(len(truth))
	}
	if tv(est, truth) >= tv(uniform, truth) {
		t.Fatalf("smoothed estimate %v no better than uniform (TV %v vs %v)",
			est, tv(est, truth), tv(uniform, truth))
	}
	argmax := func(v []float64) int {
		best := 0
		for i := range v {
			if v[i] > v[best] {
				best = i
			}
		}
		return best
	}
	if m := argmax(est); m < 2 || m > 4 {
		t.Fatalf("smoothed estimate mode at %d, truth mode at 3 (est %v)", m, est)
	}
}
