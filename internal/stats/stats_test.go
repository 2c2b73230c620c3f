package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Variance(xs); got != 4 {
		t.Fatalf("Variance = %v", got)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate inputs")
	}
}

func TestSum(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if got := Sum(xs); got != 12 {
		t.Fatalf("Sum = %v", got)
	}
}

func TestRanksWithTies(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v want %v", got, want)
		}
	}
}

func TestPearsonKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect correlation = %v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); math.Abs(got+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation = %v", got)
	}
	if got := Pearson(xs, []float64{7, 7, 7, 7, 7}); got != 0 {
		t.Fatalf("zero-variance correlation = %v", got)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Any strictly monotone transform has Spearman exactly 1.
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := make([]float64, len(xs))
	for i, v := range xs {
		ys[i] = math.Exp(v)
	}
	if got := Spearman(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Spearman = %v want 1", got)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 7
		w.Add(xs[i])
	}
	if math.Abs(w.Mean()-Mean(xs)) > 1e-10 {
		t.Fatalf("Welford mean %v vs %v", w.Mean(), Mean(xs))
	}
	if math.Abs(w.Variance()-Variance(xs)) > 1e-9 {
		t.Fatalf("Welford var %v vs %v", w.Variance(), Variance(xs))
	}
	if w.N() != 500 {
		t.Fatalf("Welford N = %d", w.N())
	}
}

func TestParetoTailAndMean(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := Pareto{Xm: 1, Alpha: 2.5}
	var w Welford
	minSeen := math.Inf(1)
	for i := 0; i < 50000; i++ {
		v := d.Sample(rng)
		if v < d.Xm {
			t.Fatalf("Pareto sample %v below scale", v)
		}
		if v < minSeen {
			minSeen = v
		}
		w.Add(v)
	}
	if math.Abs(w.Mean()-d.Mean()) > 0.05 {
		t.Fatalf("pareto mean %v want %v", w.Mean(), d.Mean())
	}
	if (Pareto{Xm: 1, Alpha: 0.9}).Mean() != math.Inf(1) {
		t.Fatal("infinite-mean Pareto should report Inf")
	}
}

func TestLogNormalMean(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := LogNormal{Mu: 0, Sigma: 0.5}
	var w Welford
	for i := 0; i < 50000; i++ {
		w.Add(d.Sample(rng))
	}
	if math.Abs(w.Mean()-d.Mean()) > 0.02 {
		t.Fatalf("lognormal mean %v want %v", w.Mean(), d.Mean())
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, mean := range []float64{0.5, 3, 12, 80} {
		var w Welford
		for i := 0; i < 30000; i++ {
			w.Add(float64(Poisson(rng, mean)))
		}
		if math.Abs(w.Mean()-mean) > mean*0.05+0.05 {
			t.Fatalf("poisson(%v) mean %v", mean, w.Mean())
		}
		if math.Abs(w.Variance()-mean) > mean*0.1+0.1 {
			t.Fatalf("poisson(%v) var %v", mean, w.Variance())
		}
	}
	if Poisson(rand.New(rand.NewSource(1)), 0) != 0 {
		t.Fatal("Poisson(0) != 0")
	}
}

func TestMMPP2BurstsIncreaseVariance(t *testing.T) {
	// An MMPP with distinct rates must be burstier than a Poisson process
	// of the same average rate: index of dispersion > 1.
	rng := rand.New(rand.NewSource(10))
	m := NewMMPP2(10, 200, 0.5, 0.5) // avg ~105/sec
	var w Welford
	for i := 0; i < 4000; i++ {
		w.Add(float64(m.Arrivals(rng, 0.1)))
	}
	mean := w.Mean()
	if mean < 5 || mean > 16 {
		t.Fatalf("MMPP mean per 100ms = %v", mean)
	}
	dispersion := w.Variance() / mean
	if dispersion < 2 {
		t.Fatalf("MMPP index of dispersion %v, want >> 1", dispersion)
	}
	// Degenerate MMPP (equal rates) is just Poisson: dispersion ~ 1.
	p := NewMMPP2(100, 100, 1, 1)
	var wp Welford
	for i := 0; i < 4000; i++ {
		wp.Add(float64(p.Arrivals(rng, 0.1)))
	}
	if d := wp.Variance() / wp.Mean(); d > 1.3 {
		t.Fatalf("degenerate MMPP dispersion %v, want ~1", d)
	}
}

func TestMMPP2StateAlternates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewMMPP2(1, 100, 5, 5)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		m.Arrivals(rng, 0.1)
		seen[m.State()] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("MMPP never alternated states: %v", seen)
	}
}

func TestPropertyRanksArePermutationSum(t *testing.T) {
	// Sum of fractional ranks must equal n(n+1)/2 regardless of ties.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(5)) // force ties
		}
		want := float64(n*(n+1)) / 2
		return math.Abs(Sum(Ranks(xs))-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPearsonBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		r := Pearson(xs, ys)
		return r >= -1-1e-12 && r <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
