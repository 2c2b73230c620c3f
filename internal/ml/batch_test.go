package ml_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"nfvxai/internal/dataset"
	"nfvxai/internal/ml"
	"nfvxai/internal/ml/forest"
	"nfvxai/internal/ml/linear"
	"nfvxai/internal/ml/nn"
	"nfvxai/internal/ml/tree"
	"nfvxai/internal/sched"
)

// syntheticData builds a nonlinear dataset wide enough to exercise every
// model's batch path.
func syntheticData(n int, task dataset.Task, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(task, "a", "b", "c", "d", "e", "f")
	for i := 0; i < n; i++ {
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		y := math.Sin(x[0])*3 + x[1]*x[2] - 2*x[3] + 0.1*rng.NormFloat64()
		if task == dataset.Classification {
			if y > 0 {
				y = 1
			} else {
				y = 0
			}
		}
		d.Add(x, y)
	}
	return d
}

// fittedModels trains one instance of every model in the zoo, plus MLP
// variants that take the batch path's other branches: tanh hidden
// units, a sigmoid output and three hidden layers.
func fittedModels(t *testing.T) map[string]ml.Predictor {
	t.Helper()
	reg := syntheticData(300, dataset.Regression, 7)
	cls := syntheticData(300, dataset.Classification, 8)

	models := map[string]ml.Predictor{}
	lin := &linear.Regression{Ridge: 1e-3}
	if err := lin.Fit(reg); err != nil {
		t.Fatal(err)
	}
	models["linear"] = lin

	logit := &linear.Logistic{Epochs: 30, BatchSize: 32, Seed: 1}
	if err := logit.Fit(cls); err != nil {
		t.Fatal(err)
	}
	models["logistic"] = logit

	cart := tree.New(tree.Config{Task: dataset.Regression, MaxDepth: 7, Seed: 3})
	if err := cart.Fit(reg); err != nil {
		t.Fatal(err)
	}
	models["tree"] = cart

	rf := &forest.RandomForest{NumTrees: 15, MaxDepth: 6, Task: dataset.Regression, Seed: 4}
	if err := rf.Fit(reg); err != nil {
		t.Fatal(err)
	}
	models["forest"] = rf

	gbt := &forest.GradientBoosting{NumRounds: 25, MaxDepth: 3, Task: dataset.Classification, Seed: 5}
	if err := gbt.Fit(cls); err != nil {
		t.Fatal(err)
	}
	models["gbt"] = gbt

	for name, mlp := range map[string]*nn.MLP{
		"mlp":      {Hidden: []int{12, 6}, Epochs: 10, Task: dataset.Regression, Seed: 6},
		"mlp-tanh": {Hidden: []int{12, 6}, Act: nn.Tanh, Epochs: 10, Task: dataset.Regression, Seed: 6},
		"mlp-cls":  {Hidden: []int{12, 6}, Epochs: 10, Task: dataset.Classification, Seed: 6},
		"mlp-deep": {Hidden: []int{12, 9, 5}, Epochs: 10, Task: dataset.Regression, Seed: 6},
	} {
		d := reg
		if mlp.Task == dataset.Classification {
			d = cls
		}
		if err := mlp.Fit(d); err != nil {
			t.Fatal(err)
		}
		models[name] = mlp
	}
	return models
}

// TestPredictBatchParity checks that every native batch path reproduces a
// Predict loop exactly — bit-identical, not just within tolerance — which
// is what lets the explainer rewrites claim unchanged attributions.
func TestPredictBatchParity(t *testing.T) {
	// The shared pool is sized at first use, which under `go test -cpu
	// 1,4` happens at GOMAXPROCS=1 and leaves one worker that runs every
	// batch inline. Give it two so that batches of 1024 rows or more are
	// split into chunks and dispatched.
	if sched.Default().Workers() < 2 {
		sched.Configure(2, false)
	}
	// Sizes around the MLP's 4-row tile (the rows%4 tail) and its 512-row
	// chunk, and sizes the two-worker pool splits into chunks.
	sizes := []int{1, 3, 5, 511, 513, 700, 1027, 2051}
	all := syntheticData(sizes[len(sizes)-1], dataset.Regression, 11).X
	for name, m := range fittedModels(t) {
		bp, ok := m.(ml.BatchPredictor)
		if !ok {
			t.Errorf("%s: does not implement ml.BatchPredictor", name)
			continue
		}
		for _, n := range sizes {
			X := all[:n]
			got := make([]float64, len(X))
			bp.PredictBatch(X, got)
			for i, x := range X {
				if want := m.Predict(x); got[i] != want {
					t.Fatalf("%s/%d rows: row %d: PredictBatch %v != Predict %v", name, n, i, got[i], want)
				}
			}
			// The dispatch helpers must route to the same fast path.
			viaHelper := ml.PredictBatch(m, X)
			par := make([]float64, len(X))
			ml.PredictBatchParallel(m, X, par, 4)
			for i := range X {
				if viaHelper[i] != got[i] || par[i] != got[i] {
					t.Fatalf("%s/%d rows: row %d: helper dispatch mismatch", name, n, i)
				}
			}
		}
	}
}

// TestPredictBatchNaNRouting pins down the NaN convention: Predict's
// `x <= threshold ? left : right` sends NaN right, and the flattened
// batch walk must agree.
func TestPredictBatchNaNRouting(t *testing.T) {
	reg := syntheticData(200, dataset.Regression, 41)
	rf := &forest.RandomForest{NumTrees: 8, MaxDepth: 6, Task: dataset.Regression, Seed: 13}
	if err := rf.Fit(reg); err != nil {
		t.Fatal(err)
	}
	X := make([][]float64, 0, 24)
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			x := append([]float64(nil), reg.X[i]...)
			x[j] = math.NaN()
			X = append(X, x)
		}
	}
	out := make([]float64, len(X))
	rf.PredictBatch(X, out)
	for i, x := range X {
		if want := rf.Predict(x); out[i] != want && !(math.IsNaN(out[i]) && math.IsNaN(want)) {
			t.Fatalf("NaN row %d: PredictBatch %v != Predict %v", i, out[i], want)
		}
	}
}

// TestPredictBatchParallelGeneric checks the worker-chunked fallback for
// models without a native batch path.
func TestPredictBatchParallelGeneric(t *testing.T) {
	m := ml.PredictorFunc(func(x []float64) float64 { return 3*x[0] - x[1] })
	X := make([][]float64, 1000) // above the parallel threshold
	for i := range X {
		X[i] = []float64{float64(i), float64(2 * i)}
	}
	out := make([]float64, len(X))
	ml.PredictBatchParallel(m, X, out, 0)
	for i, x := range X {
		if want := m.Predict(x); out[i] != want {
			t.Fatalf("row %d: %v != %v", i, out[i], want)
		}
	}
}

// TestConcurrentPredictBatch exercises the lazily built flattened-tree
// layout and the ensemble sharding under concurrency; run with -race.
func TestConcurrentPredictBatch(t *testing.T) {
	reg := syntheticData(300, dataset.Regression, 21)
	rf := &forest.RandomForest{NumTrees: 10, MaxDepth: 6, Task: dataset.Regression, Seed: 9}
	if err := rf.Fit(reg); err != nil {
		t.Fatal(err)
	}
	// Drop the fit-time layout so goroutines race to rebuild it.
	for _, tr := range rf.Trees {
		tr.InvalidateFlat()
	}
	X := reg.X
	want := make([]float64, len(X))
	rf.PredictBatch(X, want)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, len(X))
			rf.PredictBatch(X, out)
			for i := range out {
				if out[i] != want[i] {
					t.Errorf("row %d: concurrent %v != %v", i, out[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestInvalidateFlat checks that direct Node mutation plus invalidation is
// reflected by the batch path (the boosting Newton-step pattern).
func TestInvalidateFlat(t *testing.T) {
	reg := syntheticData(100, dataset.Regression, 31)
	cart := tree.New(tree.Config{Task: dataset.Regression, MaxDepth: 3, Seed: 1})
	if err := cart.Fit(reg); err != nil {
		t.Fatal(err)
	}
	for i := range cart.Nodes {
		if cart.Nodes[i].IsLeaf() {
			cart.Nodes[i].Value += 100
		}
	}
	cart.InvalidateFlat()
	out := make([]float64, 1)
	cart.PredictBatch(reg.X[:1], out)
	if want := cart.Predict(reg.X[0]); out[0] != want {
		t.Fatalf("after invalidate: batch %v != predict %v", out[0], want)
	}
}
