package lime

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"nfvxai/internal/ml"
)

func background(rng *rand.Rand, n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		out[i] = row
	}
	return out
}

func TestLimeLinearModelSigns(t *testing.T) {
	// For a linear model, LIME coefficients must have the sign of
	// w_j·(x_j − E[x_j]) and be ordered by that magnitude.
	rng := rand.New(rand.NewSource(1))
	model := ml.PredictorFunc(func(x []float64) float64 {
		return 5*x[0] - 3*x[1] + 0.0*x[2]
	})
	bg := background(rng, 100, 3)
	x := []float64{2, 2, 2}
	e := &Explainer{Model: model, Background: bg, NumSamples: 3000, Seed: 2}
	res, err := e.ExplainDetailed(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phi[0] <= 0 {
		t.Fatalf("phi[0] = %v want > 0", res.Phi[0])
	}
	if res.Phi[1] >= 0 {
		t.Fatalf("phi[1] = %v want < 0", res.Phi[1])
	}
	if math.Abs(res.Phi[2]) > 0.35 {
		t.Fatalf("irrelevant feature |phi| = %v", math.Abs(res.Phi[2]))
	}
	if math.Abs(res.Phi[0]) <= math.Abs(res.Phi[2]) {
		t.Fatal("informative feature not ranked above noise")
	}
	// A linear model is globally additive in the binary representation;
	// the surrogate captures the z-induced variation, with residual noise
	// only from which background row supplied the replacements.
	if res.LocalR2 < 0.5 {
		t.Fatalf("local R2 = %v", res.LocalR2)
	}
}

func TestLimeApproximatesShapOnAdditiveModel(t *testing.T) {
	// On an additive model with binary masking the LIME coefficient for
	// feature j estimates E_b[f_j(x_j) − f_j(b_j)], the same quantity SHAP
	// assigns; check rough agreement.
	rng := rand.New(rand.NewSource(3))
	model := ml.PredictorFunc(func(x []float64) float64 {
		return 2*x[0] + x[1]*x[1]
	})
	bg := background(rng, 200, 2)
	x := []float64{1.5, 2}
	e := &Explainer{Model: model, Background: bg, NumSamples: 4000, Seed: 4}
	res, err := e.ExplainDetailed(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 float64
	for _, b := range bg {
		m0 += 2*x[0] - 2*b[0]
		m1 += x[1]*x[1] - b[1]*b[1]
	}
	m0 /= float64(len(bg))
	m1 /= float64(len(bg))
	if math.Abs(res.Phi[0]-m0) > 0.4 {
		t.Fatalf("phi[0] = %v want ≈ %v", res.Phi[0], m0)
	}
	if math.Abs(res.Phi[1]-m1) > 0.6 {
		t.Fatalf("phi[1] = %v want ≈ %v", res.Phi[1], m1)
	}
}

func TestLimeDeterministicSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	model := ml.PredictorFunc(func(x []float64) float64 { return x[0] * x[1] })
	bg := background(rng, 50, 2)
	e1 := &Explainer{Model: model, Background: bg, NumSamples: 500, Seed: 7}
	e2 := &Explainer{Model: model, Background: bg, NumSamples: 500, Seed: 7}
	a1, err := e1.Explain(context.Background(), []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// A differently shaped call in between leaves its neighborhood and rng
	// state in the pooled buffer e2 then checks out.
	other := &Explainer{Model: ml.PredictorFunc(func(x []float64) float64 { return x[0] - x[2] }),
		Background: background(rng, 30, 3), NumSamples: 800, Seed: 11}
	if _, err := other.Explain(context.Background(), []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	a2, err := e2.Explain(context.Background(), []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for j := range a1.Phi {
		if a1.Phi[j] != a2.Phi[j] {
			t.Fatal("same seed differs")
		}
	}
}

func TestLimeValueIsModelOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	model := ml.PredictorFunc(func(x []float64) float64 { return 3 * x[0] })
	bg := background(rng, 30, 1)
	e := &Explainer{Model: model, Background: bg, NumSamples: 300, Seed: 9}
	attr, err := e.Explain(context.Background(), []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if attr.Value != 6 {
		t.Fatalf("Value = %v want 6", attr.Value)
	}
}

func TestLimeKernelWidthAffectsLocality(t *testing.T) {
	// A narrow kernel should fit the local slope of a piecewise function
	// better than an extremely wide kernel at a point near a regime
	// boundary; at minimum the two must differ, proving the kernel is
	// actually applied.
	rng := rand.New(rand.NewSource(10))
	model := ml.PredictorFunc(func(x []float64) float64 {
		if x[0] > 0 {
			return 10 * x[0]
		}
		return -x[0]
	})
	bg := background(rng, 200, 1)
	narrow := &Explainer{Model: model, Background: bg, NumSamples: 2000, KernelWidth: 0.2, Seed: 11}
	wide := &Explainer{Model: model, Background: bg, NumSamples: 2000, KernelWidth: 50, Seed: 11}
	an, err := narrow.Explain(context.Background(), []float64{1.5})
	if err != nil {
		t.Fatal(err)
	}
	aw, err := wide.Explain(context.Background(), []float64{1.5})
	if err != nil {
		t.Fatal(err)
	}
	if an.Phi[0] == aw.Phi[0] {
		t.Fatal("kernel width has no effect")
	}
}

func TestLimeErrors(t *testing.T) {
	model := ml.PredictorFunc(func(x []float64) float64 { return 0 })
	if _, err := (&Explainer{Model: model}).Explain(context.Background(), []float64{1}); err == nil {
		t.Fatal("expected empty-background error")
	}
	if _, err := (&Explainer{Model: model, Background: [][]float64{{1, 2}}}).Explain(context.Background(), []float64{1}); err == nil {
		t.Fatal("expected width mismatch error")
	}
	if _, err := (&Explainer{Model: model, Background: [][]float64{{1}}}).Explain(context.Background(), nil); err == nil {
		t.Fatal("expected empty-input error")
	}
}

func TestLimeAdditivityGap(t *testing.T) {
	// LIME does not enforce efficiency; but base + Σ phi should still be
	// in the vicinity of f(x) for additive models (the surrogate passes
	// near the anchored instance).
	rng := rand.New(rand.NewSource(12))
	model := ml.PredictorFunc(func(x []float64) float64 { return 4*x[0] + x[1] })
	bg := background(rng, 100, 2)
	e := &Explainer{Model: model, Background: bg, NumSamples: 3000, Seed: 13}
	attr, err := e.Explain(context.Background(), []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if attr.AdditivityError() > 1.0 {
		t.Fatalf("additivity gap %v too large for additive model", attr.AdditivityError())
	}
}
