package nn

import (
	"math"
	"math/rand"
	"testing"

	"nfvxai/internal/dataset"
	"nfvxai/internal/ml/metrics"
)

func TestMLPLearnsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := dataset.New(dataset.Regression, "a", "b")
	for i := 0; i < 800; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		d.Add(x, 2*x[0]-3*x[1]+1)
	}
	m := MLP{Hidden: []int{16}, Epochs: 120, Task: dataset.Regression, Seed: 2}
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, d.Len())
	for i, x := range d.X {
		pred[i] = m.Predict(x)
	}
	if r2 := metrics.R2(pred, d.Y); r2 < 0.99 {
		t.Fatalf("linear R2 = %v", r2)
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := dataset.New(dataset.Classification, "a", "b")
	for i := 0; i < 1200; i++ {
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		y := 0.0
		if (x[0] > 0) != (x[1] > 0) {
			y = 1
		}
		d.Add(x, y)
	}
	m := MLP{Hidden: []int{16, 8}, Epochs: 200, Task: dataset.Classification, Seed: 4}
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	prob := make([]float64, d.Len())
	for i, x := range d.X {
		prob[i] = m.Predict(x)
		if prob[i] < 0 || prob[i] > 1 {
			t.Fatalf("probability %v", prob[i])
		}
	}
	rep := metrics.EvalClassification("mlp", prob, d.Y)
	if rep.Accuracy < 0.95 {
		t.Fatalf("XOR accuracy = %v", rep.Accuracy)
	}
}

func TestMLPNonlinearRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := dataset.New(dataset.Regression, "x")
	for i := 0; i < 1000; i++ {
		x := rng.Float64()*4 - 2
		d.Add([]float64{x}, math.Sin(2*x))
	}
	m := MLP{Hidden: []int{32, 16}, Epochs: 300, Task: dataset.Regression, Seed: 6}
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, d.Len())
	for i, x := range d.X {
		pred[i] = m.Predict(x)
	}
	if r2 := metrics.R2(pred, d.Y); r2 < 0.97 {
		t.Fatalf("sine R2 = %v", r2)
	}
}

func TestMLPTanhActivation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := dataset.New(dataset.Regression, "x")
	for i := 0; i < 600; i++ {
		x := rng.NormFloat64()
		d.Add([]float64{x}, x*x)
	}
	m := MLP{Hidden: []int{24}, Act: Tanh, Epochs: 300, Task: dataset.Regression, Seed: 8}
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, d.Len())
	for i, x := range d.X {
		pred[i] = m.Predict(x)
	}
	if r2 := metrics.R2(pred, d.Y); r2 < 0.9 {
		t.Fatalf("tanh quadratic R2 = %v", r2)
	}
}

func TestMLPDeterministicSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := dataset.New(dataset.Regression, "x")
	for i := 0; i < 100; i++ {
		v := rng.NormFloat64()
		d.Add([]float64{v}, v)
	}
	a := MLP{Hidden: []int{8}, Epochs: 20, Task: dataset.Regression, Seed: 99}
	b := MLP{Hidden: []int{8}, Epochs: 20, Task: dataset.Regression, Seed: 99}
	if err := a.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		x := []float64{rng.NormFloat64()}
		if a.Predict(x) != b.Predict(x) {
			t.Fatal("same seed produced different networks")
		}
	}
}

func TestMLPErrors(t *testing.T) {
	var m MLP
	if err := m.Fit(dataset.New(dataset.Regression, "x")); err == nil {
		t.Fatal("expected empty-dataset error")
	}
	bad := MLP{Hidden: []int{0}}
	d := dataset.New(dataset.Regression, "x")
	d.Add([]float64{1}, 1)
	if err := bad.Fit(d); err == nil {
		t.Fatal("expected invalid-width error")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic predicting before Fit")
			}
		}()
		(&MLP{}).Predict([]float64{1})
	}()
}

func TestMLPPredictWidthPanics(t *testing.T) {
	d := dataset.New(dataset.Regression, "a", "b")
	d.Add([]float64{1, 2}, 3)
	d.Add([]float64{2, 3}, 5)
	m := MLP{Hidden: []int{4}, Epochs: 5, Task: dataset.Regression}
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong input width")
		}
	}()
	m.Predict([]float64{1})
}

func TestMLPL2Regularizes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := dataset.New(dataset.Regression, "x")
	for i := 0; i < 200; i++ {
		v := rng.NormFloat64()
		d.Add([]float64{v}, 5*v)
	}
	free := MLP{Hidden: []int{8}, Epochs: 100, Task: dataset.Regression, Seed: 1}
	reg := MLP{Hidden: []int{8}, Epochs: 100, Task: dataset.Regression, Seed: 1, L2: 0.5}
	if err := free.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := reg.Fit(d); err != nil {
		t.Fatal(err)
	}
	norm := func(m *MLP) float64 {
		var s float64
		for _, w := range m.weights {
			for _, v := range w {
				s += v * v
			}
		}
		return s
	}
	if norm(&reg) >= norm(&free) {
		t.Fatalf("L2 did not shrink weights: %v vs %v", norm(&reg), norm(&free))
	}
}
