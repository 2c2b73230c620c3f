package shap

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"nfvxai/internal/ml"
)

// slowModel adds a fixed per-prediction delay to a linear model, so
// tests can force the progressive estimator against its deadline.
type slowModel struct {
	linearModel
	delay time.Duration
}

func (m slowModel) Predict(x []float64) float64 {
	time.Sleep(m.delay)
	return m.linearModel.Predict(x)
}

// progressiveKernel builds a kernel on a d > 20 feature space (so exact
// enumeration cannot shortcut the block loop) with a known closed form.
func progressiveKernel(model ml.Predictor, bg [][]float64) *Kernel {
	return &Kernel{Model: model, Background: bg, NumSamples: 2048}
}

func TestProgressiveMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := 24
	w := make([]float64, d)
	x := make([]float64, d)
	for j := range w {
		w[j] = rng.NormFloat64()
		x[j] = rng.NormFloat64()
	}
	m := linearModel{w: w, c: 1}
	bg := randomBackground(rng, 30, d)
	k := progressiveKernel(m, bg)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	attr, err := k.Explain(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if attr.Diag == nil {
		t.Fatal("deadline-bearing context must route through the progressive estimator (no Diag)")
	}
	if attr.Diag.SamplesUsed == 0 || attr.Diag.Blocks == 0 {
		t.Fatalf("diag = %+v; want samples and blocks accounted", attr.Diag)
	}
	for j := 0; j < d; j++ {
		var mean float64
		for _, b := range bg {
			mean += b[j]
		}
		mean /= float64(len(bg))
		want := w[j] * (x[j] - mean)
		if math.Abs(attr.Phi[j]-want) > 0.05 {
			t.Fatalf("phi[%d] = %v want %v (±0.05)", j, attr.Phi[j], want)
		}
	}
	// Efficiency must hold exactly even for a blockwise mean.
	if ae := attr.AdditivityError(); ae > 1e-9 {
		t.Fatalf("additivity error = %g; progressive mean must stay efficient", ae)
	}
}

func TestProgressiveDeterministicPartial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := 24
	w := make([]float64, d)
	x := make([]float64, d)
	for j := range w {
		w[j] = rng.NormFloat64()
		x[j] = rng.NormFloat64()
	}
	bg := randomBackground(rng, 20, d)
	run := func() ([]float64, *int) {
		k := progressiveKernel(linearModel{w: w, c: 1}, bg)
		k.Seed = 99
		k.ConvergeTol = -1 // disable early convergence: fixed block count
		k.NumSamples = 512 // exactly 4 blocks of 128
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		attr, err := k.Explain(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		if attr.Diag == nil {
			t.Fatal("no diag")
		}
		return attr.Phi, &attr.Diag.Blocks
	}
	phi1, b1 := run()
	phi2, b2 := run()
	if *b1 != *b2 {
		t.Fatalf("block counts diverged: %d vs %d", *b1, *b2)
	}
	for j := range phi1 {
		if phi1[j] != phi2[j] {
			t.Fatalf("phi[%d] diverged across identical runs: %v vs %v", j, phi1[j], phi2[j])
		}
	}
}

func TestProgressiveConvergesEarly(t *testing.T) {
	// A linear model has zero interaction noise: blocks agree quickly, so
	// convergence must fire long before the full sample budget.
	rng := rand.New(rand.NewSource(5))
	d := 24
	w := make([]float64, d)
	x := make([]float64, d)
	for j := range w {
		w[j] = rng.NormFloat64()
		x[j] = rng.NormFloat64()
	}
	bg := randomBackground(rng, 20, d)
	k := progressiveKernel(linearModel{w: w, c: 1}, bg)
	k.NumSamples = 1 << 20
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	attr, err := k.Explain(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if !attr.Diag.Converged {
		t.Fatalf("diag = %+v; want converged", attr.Diag)
	}
	if attr.Diag.SamplesUsed >= 1<<20 {
		t.Fatal("converged run must not spend the whole budget")
	}
	if len(attr.Diag.CIHalf) != d {
		t.Fatalf("CIHalf has %d entries, want %d", len(attr.Diag.CIHalf), d)
	}
}

func TestProgressivePartialOnDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := 24
	w := make([]float64, d)
	x := make([]float64, d)
	for j := range w {
		w[j] = rng.NormFloat64()
		x[j] = rng.NormFloat64()
	}
	bg := randomBackground(rng, 8, d)
	// A 6 µs time.Sleep lasts longer than asked: tens of µs with idle Ps,
	// about 1 ms at GOMAXPROCS=1. So one 32-coalition block (256
	// predictions over 8 background rows) costs ~5 ms to ~300 ms, and the
	// 1<<20 budget at least 50 s. The deadline only bounds how long the
	// test samples. The test fails only when the deadline passes before
	// the first block starts, after the base value's 9 predictions, so
	// the deadline sits far above that.
	k := progressiveKernel(slowModel{linearModel{w: w, c: 1}, 6 * time.Microsecond}, bg)
	k.NumSamples = 1 << 20
	k.BlockSamples = 32
	k.ConvergeTol = -1
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	attr, err := k.Explain(ctx, x)
	if err != nil {
		t.Fatalf("deadline must yield a partial result, not an error: %v", err)
	}
	if attr.Diag == nil || attr.Diag.Converged {
		t.Fatalf("diag = %+v; want unconverged partial", attr.Diag)
	}
	if attr.Diag.SamplesUsed >= 1<<20 {
		t.Fatal("partial result must not have spent the full budget")
	}
	if len(attr.Phi) != d {
		t.Fatalf("partial phi has %d features, want %d", len(attr.Phi), d)
	}
	if ae := attr.AdditivityError(); ae > 1e-9 {
		t.Fatalf("partial result additivity error = %g; must stay efficient", ae)
	}
}

func TestProgressiveExpiredContextErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := 24
	x := make([]float64, d)
	w := make([]float64, d)
	for j := range x {
		x[j] = rng.NormFloat64()
		w[j] = 1
	}
	bg := randomBackground(rng, 8, d)
	k := progressiveKernel(linearModel{w: w}, bg)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // already expired: zero blocks complete
	if _, err := k.Explain(ctx, x); err == nil {
		t.Fatal("expired context with no completed block must error, not fabricate an attribution")
	}
}
