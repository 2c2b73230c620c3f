package intgrad

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"nfvxai/internal/dataset"
	"nfvxai/internal/ml/nn"
)

// quadModel is an analytic differentiable model for exact checks:
// f(x) = 3x0 + x1² − 2x0x1.
type quadModel struct{}

func (quadModel) Predict(x []float64) float64 {
	return 3*x[0] + x[1]*x[1] - 2*x[0]*x[1]
}

func (quadModel) Gradient(x []float64) []float64 {
	return []float64{3 - 2*x[1], 2*x[1] - 2*x[0]}
}

func TestCompletenessAxiom(t *testing.T) {
	e := &Explainer{Model: quadModel{}, Baseline: []float64{0, 0}, Steps: 256}
	x := []float64{1.5, -2}
	attr, err := e.Explain(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	// Completeness: Σφ = f(x) − f(baseline). The integrand is polynomial,
	// so the midpoint rule is near-exact at 256 steps.
	if ae := attr.AdditivityError(); ae > 1e-9 {
		t.Fatalf("completeness violated: %v", ae)
	}
}

func TestLinearModelExact(t *testing.T) {
	// For a linear model IG is exact at any resolution: φ_j = w_j(x_j−b_j).
	lin := linModel{w: []float64{2, -5, 0.5}}
	e := &Explainer{Model: lin, Baseline: []float64{1, 1, 1}, Steps: 1}
	x := []float64{3, 0, 2}
	attr, err := e.Explain(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2 * 2, -5 * -1, 0.5 * 1}
	for j := range want {
		if math.Abs(attr.Phi[j]-want[j]) > 1e-12 {
			t.Fatalf("phi[%d] = %v want %v", j, attr.Phi[j], want[j])
		}
	}
}

type linModel struct{ w []float64 }

func (m linModel) Predict(x []float64) float64 {
	var s float64
	for j, v := range x {
		s += m.w[j] * v
	}
	return s
}

func (m linModel) Gradient(x []float64) []float64 {
	return append([]float64(nil), m.w...)
}

func TestDummyFeatureZero(t *testing.T) {
	e := &Explainer{Model: quadModel{}, Baseline: []float64{0, 0}, Steps: 64}
	// Feature 1 at the baseline value contributes nothing regardless of
	// path position only if x1 == baseline1.
	attr, err := e.Explain(context.Background(), []float64{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if attr.Phi[1] != 0 {
		t.Fatalf("unchanged feature attribution %v", attr.Phi[1])
	}
}

func TestErrors(t *testing.T) {
	e := &Explainer{Model: quadModel{}, Baseline: []float64{0}}
	if _, err := e.Explain(context.Background(), nil); err == nil {
		t.Fatal("expected empty-input error")
	}
	if _, err := e.Explain(context.Background(), []float64{1, 2}); err == nil {
		t.Fatal("expected baseline-width error")
	}
}

func TestMLPGradientMatchesFiniteDifference(t *testing.T) {
	// The analytic backprop gradient must match central finite differences
	// — this validates both Gradient and, transitively, training backprop.
	rng := rand.New(rand.NewSource(1))
	d := dataset.New(dataset.Regression, "a", "b", "c")
	for i := 0; i < 400; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		d.Add(x, x[0]*x[1]+math.Sin(x[2]))
	}
	m := &nn.MLP{Hidden: []int{16, 8}, Act: nn.Tanh, Epochs: 40, Task: dataset.Regression, Seed: 2}
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	const h = 1e-6
	for trial := 0; trial < 10; trial++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		g := m.Gradient(x)
		for j := range x {
			xp := append([]float64(nil), x...)
			xm := append([]float64(nil), x...)
			xp[j] += h
			xm[j] -= h
			fd := (m.Predict(xp) - m.Predict(xm)) / (2 * h)
			if math.Abs(g[j]-fd) > 1e-4*(1+math.Abs(fd)) {
				t.Fatalf("gradient[%d] = %v, finite diff %v", j, g[j], fd)
			}
		}
	}
}

func TestMLPClassificationGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := dataset.New(dataset.Classification, "a", "b")
	for i := 0; i < 400; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		y := 0.0
		if x[0]+x[1] > 0 {
			y = 1
		}
		d.Add(x, y)
	}
	m := &nn.MLP{Hidden: []int{8}, Act: nn.Tanh, Epochs: 60, Task: dataset.Classification, Seed: 4}
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	const h = 1e-6
	x := []float64{0.3, -0.2}
	g := m.Gradient(x)
	for j := range x {
		xp := append([]float64(nil), x...)
		xm := append([]float64(nil), x...)
		xp[j] += h
		xm[j] -= h
		fd := (m.Predict(xp) - m.Predict(xm)) / (2 * h)
		if math.Abs(g[j]-fd) > 1e-4*(1+math.Abs(fd)) {
			t.Fatalf("prob gradient[%d] = %v, finite diff %v", j, g[j], fd)
		}
	}
}

func TestIntegratedGradientsOnMLP(t *testing.T) {
	// End-to-end: IG on a trained MLP satisfies completeness and ranks
	// the informative feature above a noise feature.
	rng := rand.New(rand.NewSource(5))
	d := dataset.New(dataset.Regression, "signal", "noise")
	for i := 0; i < 800; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		d.Add(x, 4*x[0])
	}
	m := &nn.MLP{Hidden: []int{16}, Epochs: 80, Task: dataset.Regression, Seed: 6}
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	e := &Explainer{Model: m, Baseline: []float64{0, 0}, Steps: 128}
	attr, err := e.Explain(context.Background(), []float64{1.5, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	// ReLU nets are piecewise linear: midpoint integration is accurate
	// but not exact; allow a small completeness tolerance.
	if ae := attr.AdditivityError(); ae > 0.02*math.Abs(attr.Value-attr.Base)+1e-6 {
		t.Fatalf("completeness error %v", ae)
	}
	if math.Abs(attr.Phi[0]) <= math.Abs(attr.Phi[1]) {
		t.Fatalf("signal not ranked above noise: %v", attr.Phi)
	}
}
