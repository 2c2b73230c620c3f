package shap

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"nfvxai/internal/dataset"
	"nfvxai/internal/ml"
	"nfvxai/internal/ml/forest"
	"nfvxai/internal/xai"
)

// fitForest trains a small random forest and returns it with a background
// sample and a probe instance.
func fitForest(t *testing.T, seed int64) (*forest.RandomForest, [][]float64, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(dataset.Regression, "a", "b", "c", "d", "e", "f", "g", "h")
	for i := 0; i < 300; i++ {
		x := make([]float64, 8)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		d.Add(x, math.Sin(x[0])*4+x[1]*x[2]-x[3]+0.05*rng.NormFloat64())
	}
	rf := &forest.RandomForest{NumTrees: 12, MaxDepth: 6, Task: dataset.Regression, Seed: seed}
	if err := rf.Fit(d); err != nil {
		t.Fatal(err)
	}
	return rf, d.X[:40], d.X[50]
}

// TestBatchedExplainMatchesRowAtATime is the rewrite's core parity claim:
// the matrix-assembled, batch-evaluated estimator returns the same
// attributions as the seed's one-Predict-per-perturbation loop.
func TestBatchedExplainMatchesRowAtATime(t *testing.T) {
	rf, bg, x := fitForest(t, 3)
	batched := &Kernel{Model: rf, Background: bg, NumSamples: 512, Seed: 5}
	rowwise := &Kernel{Model: rf, Background: bg, NumSamples: 512, Seed: 5, RowAtATime: true}
	a, err := batched.Explain(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rowwise.Explain(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if a.Base != b.Base || a.Value != b.Value {
		t.Fatalf("base/value drift: (%v,%v) vs (%v,%v)", a.Base, a.Value, b.Base, b.Value)
	}
	for j := range a.Phi {
		if diff := math.Abs(a.Phi[j] - b.Phi[j]); diff > 1e-9 {
			t.Fatalf("phi[%d]: batched %v vs row-at-a-time %v (diff %g)", j, a.Phi[j], b.Phi[j], diff)
		}
	}
}

// TestBatchedExplainGBTClassificationParity covers the sigmoid-link
// branch of the masked tree-ensemble evaluator: a classification GBT's
// Predict is sigmoid(raw margin), which the fast path must reproduce.
func TestBatchedExplainGBTClassificationParity(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	d := dataset.New(dataset.Classification, "a", "b", "c", "d", "e", "f")
	for i := 0; i < 300; i++ {
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		y := 0.0
		if x[0]+x[1]*x[2] > 0 {
			y = 1
		}
		d.Add(x, y)
	}
	gbt := &forest.GradientBoosting{NumRounds: 40, MaxDepth: 3, Task: dataset.Classification, Seed: 2}
	if err := gbt.Fit(d); err != nil {
		t.Fatal(err)
	}
	bg := d.X[:40]
	x := d.X[60]
	batched := &Kernel{Model: gbt, Background: bg, NumSamples: 512, Seed: 3}
	rowwise := &Kernel{Model: gbt, Background: bg, NumSamples: 512, Seed: 3, RowAtATime: true}
	a, err := batched.Explain(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rowwise.Explain(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Phi {
		if diff := math.Abs(a.Phi[j] - b.Phi[j]); diff > 1e-9 {
			t.Fatalf("phi[%d]: batched %v vs row-at-a-time %v (diff %g)", j, a.Phi[j], b.Phi[j], diff)
		}
	}
}

// TestBatchedExplainGenericModelParity checks the fallback: a model hidden
// behind a plain Predictor must yield the same attributions as the same
// model's native batch path.
func TestBatchedExplainGenericModelParity(t *testing.T) {
	rf, bg, x := fitForest(t, 7)
	native := &Kernel{Model: rf, Background: bg, NumSamples: 512, Seed: 9}
	generic := &Kernel{Model: ml.PredictorFunc(rf.Predict), Background: bg, NumSamples: 512, Seed: 9}
	a, err := native.Explain(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generic.Explain(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Phi {
		if diff := math.Abs(a.Phi[j] - b.Phi[j]); diff > 1e-9 {
			t.Fatalf("phi[%d]: native %v vs generic %v (diff %g)", j, a.Phi[j], b.Phi[j], diff)
		}
	}
}

// TestBaseValueCached checks the sync.Once base-value cache: a model
// wrapper counts background predictions across two Explains.
func TestBaseValueCached(t *testing.T) {
	rf, bg, x := fitForest(t, 11)
	var mu sync.Mutex
	calls := 0
	counted := ml.PredictorFunc(func(v []float64) float64 {
		mu.Lock()
		calls++
		mu.Unlock()
		return rf.Predict(v)
	})
	k := &Kernel{Model: counted, Background: bg, NumSamples: 64, Seed: 1}
	if _, err := k.Explain(context.Background(), x); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	afterFirst := calls
	mu.Unlock()
	if _, err := k.Explain(context.Background(), x); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	afterSecond := calls
	mu.Unlock()
	// The second Explain must not re-predict the background: its call count
	// is the first's minus the len(bg) base-value predictions.
	if got, want := afterSecond-afterFirst, afterFirst-len(bg); got != want {
		t.Fatalf("second Explain made %d model calls, want %d (base value not cached?)", got, want)
	}
}

// TestConcurrentExplainAndPredictBatch exercises the sync.Once base cache,
// the lazily built flat tree layout, and ensemble sharding all at once;
// meaningful under -race.
func TestConcurrentExplainAndPredictBatch(t *testing.T) {
	rf, bg, _ := fitForest(t, 13)
	for _, tr := range rf.Trees {
		tr.InvalidateFlat() // force concurrent lazy rebuilds
	}
	k := &Kernel{Model: rf, Background: bg, NumSamples: 128, Seed: 3}
	xs := bg[:8]
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		out := make([]float64, len(bg))
		for i := 0; i < 20; i++ {
			rf.PredictBatch(bg, out)
		}
	}()
	attrs, err := xai.ExplainBatch(context.Background(), k, xs)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range attrs {
		if a.AdditivityError() > 1e-6 {
			t.Fatalf("instance %d: additivity error %g", i, a.AdditivityError())
		}
	}
}
