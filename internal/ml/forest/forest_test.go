package forest

import (
	"math"
	"math/rand"
	"testing"

	"nfvxai/internal/dataset"
	"nfvxai/internal/ml/metrics"
	"nfvxai/internal/ml/tree"
	"nfvxai/internal/sched"
)

// friedman1-style nonlinear regression target.
func nonlinearRegression(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(dataset.Regression, "x0", "x1", "x2", "x3", "x4")
	for i := 0; i < n; i++ {
		x := make([]float64, 5)
		for j := range x {
			x[j] = rng.Float64()
		}
		y := 10*math.Sin(math.Pi*x[0]*x[1]) + 20*(x[2]-0.5)*(x[2]-0.5) + 10*x[3] + rng.NormFloat64()*0.2
		d.Add(x, y)
	}
	return d
}

func circleClassification(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(dataset.Classification, "a", "b")
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		y := 0.0
		if x[0]*x[0]+x[1]*x[1] < 0.4 {
			y = 1
		}
		d.Add(x, y)
	}
	return d
}

func TestForestRegressionBeatsSingleSplitBaseline(t *testing.T) {
	d := nonlinearRegression(1500, 1)
	train, test := d.Split(rand.New(rand.NewSource(2)), 0.8)
	f := RandomForest{NumTrees: 40, MaxDepth: 10, Task: dataset.Regression, Seed: 3}
	if err := f.Fit(train); err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, test.Len())
	for i, x := range test.X {
		pred[i] = f.Predict(x)
	}
	r2 := metrics.R2(pred, test.Y)
	if r2 < 0.85 {
		t.Fatalf("forest test R2 = %v", r2)
	}
}

func TestForestClassificationCircle(t *testing.T) {
	d := circleClassification(2000, 4)
	train, test := d.Split(rand.New(rand.NewSource(5)), 0.8)
	f := RandomForest{NumTrees: 40, MaxDepth: 8, Task: dataset.Classification, Seed: 6}
	if err := f.Fit(train); err != nil {
		t.Fatal(err)
	}
	prob := make([]float64, test.Len())
	for i, x := range test.X {
		prob[i] = f.Predict(x)
	}
	rep := metrics.EvalClassification("rf", prob, test.Y)
	if rep.Accuracy < 0.93 || rep.AUC < 0.97 {
		t.Fatalf("rf circle acc=%v auc=%v", rep.Accuracy, rep.AUC)
	}
	for _, p := range prob {
		if p < 0 || p > 1 {
			t.Fatalf("probability out of range: %v", p)
		}
	}
}

func TestForestImportanceIdentifiesInformative(t *testing.T) {
	d := nonlinearRegression(1200, 7)
	// x4 is pure noise in the generating function.
	f := RandomForest{NumTrees: 30, MaxDepth: 8, Task: dataset.Regression, Seed: 8}
	if err := f.Fit(d); err != nil {
		t.Fatal(err)
	}
	imp := f.FeatureImportance()
	if imp[4] > imp[0] || imp[4] > imp[3] {
		t.Fatalf("noise feature ranked above informative: %v", imp)
	}
}

func TestForestDeterministicSeed(t *testing.T) {
	d := nonlinearRegression(300, 9)
	a := RandomForest{NumTrees: 5, Task: dataset.Regression, Seed: 42}
	b := RandomForest{NumTrees: 5, Task: dataset.Regression, Seed: 42}
	if err := a.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x := d.X[i]
		if a.Predict(x) != b.Predict(x) {
			t.Fatal("same seed differs")
		}
	}
}

func TestForestComponentTrees(t *testing.T) {
	d := nonlinearRegression(300, 10)
	f := RandomForest{NumTrees: 7, Task: dataset.Regression, Seed: 11}
	if err := f.Fit(d); err != nil {
		t.Fatal(err)
	}
	trees, w, base := f.ComponentTrees()
	if len(trees) != 7 || len(w) != 7 || base != 0 {
		t.Fatalf("ComponentTrees shape wrong")
	}
	// Weighted sum of component trees must equal the forest prediction.
	x := d.X[0]
	var s float64
	for i, tr := range trees {
		s += w[i] * tr.Predict(x)
	}
	if math.Abs(s-f.Predict(x)) > 1e-12 {
		t.Fatalf("decomposition mismatch: %v vs %v", s, f.Predict(x))
	}
}

func TestForestEmptyError(t *testing.T) {
	var f RandomForest
	if err := f.Fit(dataset.New(dataset.Regression, "x")); err == nil {
		t.Fatal("expected error")
	}
}

func TestGBTRegression(t *testing.T) {
	d := nonlinearRegression(1500, 12)
	train, test := d.Split(rand.New(rand.NewSource(13)), 0.8)
	g := GradientBoosting{NumRounds: 150, LearningRate: 0.1, MaxDepth: 3, Task: dataset.Regression, Seed: 14}
	if err := g.Fit(train); err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, test.Len())
	for i, x := range test.X {
		pred[i] = g.Predict(x)
	}
	if r2 := metrics.R2(pred, test.Y); r2 < 0.9 {
		t.Fatalf("gbt test R2 = %v", r2)
	}
}

func TestGBTClassification(t *testing.T) {
	d := circleClassification(2000, 15)
	train, test := d.Split(rand.New(rand.NewSource(16)), 0.8)
	g := GradientBoosting{NumRounds: 120, LearningRate: 0.15, MaxDepth: 3, Task: dataset.Classification, Seed: 17}
	if err := g.Fit(train); err != nil {
		t.Fatal(err)
	}
	prob := make([]float64, test.Len())
	for i, x := range test.X {
		prob[i] = g.Predict(x)
		if prob[i] < 0 || prob[i] > 1 {
			t.Fatalf("probability out of range: %v", prob[i])
		}
	}
	rep := metrics.EvalClassification("gbt", prob, test.Y)
	if rep.Accuracy < 0.93 || rep.AUC < 0.97 {
		t.Fatalf("gbt circle acc=%v auc=%v", rep.Accuracy, rep.AUC)
	}
}

func TestGBTMoreRoundsReduceTrainError(t *testing.T) {
	d := nonlinearRegression(600, 18)
	short := GradientBoosting{NumRounds: 10, Task: dataset.Regression, Seed: 19}
	long := GradientBoosting{NumRounds: 200, Task: dataset.Regression, Seed: 19}
	if err := short.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := long.Fit(d); err != nil {
		t.Fatal(err)
	}
	pshort := make([]float64, d.Len())
	plong := make([]float64, d.Len())
	for i, x := range d.X {
		pshort[i] = short.Predict(x)
		plong[i] = long.Predict(x)
	}
	if metrics.MSE(plong, d.Y) >= metrics.MSE(pshort, d.Y) {
		t.Fatal("more boosting rounds did not reduce training error")
	}
}

func TestGBTRawScoreDecomposition(t *testing.T) {
	d := nonlinearRegression(300, 20)
	g := GradientBoosting{NumRounds: 25, Task: dataset.Regression, Seed: 21}
	if err := g.Fit(d); err != nil {
		t.Fatal(err)
	}
	trees, w, base := g.ComponentTrees()
	x := d.X[3]
	s := base
	for i, tr := range trees {
		s += w[i] * tr.Predict(x)
	}
	if math.Abs(s-g.RawScore(x)) > 1e-12 {
		t.Fatalf("ComponentTrees decomposition mismatch: %v vs %v", s, g.RawScore(x))
	}
	if g.Predict(x) != g.RawScore(x) {
		t.Fatal("regression Predict should equal RawScore")
	}
}

func TestGBTSubsample(t *testing.T) {
	d := nonlinearRegression(500, 22)
	g := GradientBoosting{NumRounds: 60, Subsample: 0.5, Task: dataset.Regression, Seed: 23}
	if err := g.Fit(d); err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, d.Len())
	for i, x := range d.X {
		pred[i] = g.Predict(x)
	}
	if r2 := metrics.R2(pred, d.Y); r2 < 0.8 {
		t.Fatalf("subsampled gbt R2 = %v", r2)
	}
}

func TestGBTEmptyError(t *testing.T) {
	var g GradientBoosting
	if err := g.Fit(dataset.New(dataset.Regression, "x")); err == nil {
		t.Fatal("expected error")
	}
}

func TestGBTImportanceNormalized(t *testing.T) {
	d := nonlinearRegression(600, 24)
	g := GradientBoosting{NumRounds: 40, Task: dataset.Regression, Seed: 25}
	if err := g.Fit(d); err != nil {
		t.Fatal(err)
	}
	imp := g.FeatureImportance()
	var sum float64
	for _, v := range imp {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("gbt importance sums to %v", sum)
	}
}

// assertBatchParity fits both ensembles on each dataset's training split
// and asserts that PredictBatch over the whole dataset is bit-identical
// to a Predict loop.
func assertBatchParity(t *testing.T, cases map[string]*dataset.Dataset) {
	t.Helper()
	// Two workers split the larger batches into dispatched chunks even
	// when the shared pool is first sized at GOMAXPROCS=1.
	if sched.Default().Workers() < 2 {
		sched.Configure(2, false)
	}
	type ensemble interface {
		Fit(*dataset.Dataset) error
		Predict([]float64) float64
		PredictBatch([][]float64, []float64)
	}
	for name, d := range cases {
		train, _ := d.Split(rand.New(rand.NewSource(23)), 0.8)
		models := map[string]ensemble{
			"forest": &RandomForest{NumTrees: 20, MaxDepth: 8, Task: d.Task, Seed: 3},
			"gbt":    &GradientBoosting{NumRounds: 30, MaxDepth: 3, Task: d.Task, Seed: 4},
		}
		for kind, m := range models {
			if err := m.Fit(train); err != nil {
				t.Fatalf("%s %s: %v", name, kind, err)
			}
			got := make([]float64, d.Len())
			m.PredictBatch(d.X, got)
			for i, x := range d.X {
				if want := m.Predict(x); got[i] != want {
					t.Fatalf("%s %s row %d: PredictBatch %v != Predict %v", name, kind, i, got[i], want)
				}
			}
		}
	}
}

// TestQuantDefaultBitExact holds both ensembles to the batch↔single
// contract far from unit feature scale. The name dates from the opt-in
// float32 path the ensembles once had beside the default exact one; the
// exact path is now the only one.
func TestQuantDefaultBitExact(t *testing.T) {
	scale := func(d *dataset.Dataset, s float64) *dataset.Dataset {
		for _, row := range d.X {
			for j := range row {
				row[j] *= s
			}
		}
		return d
	}
	assertBatchParity(t, map[string]*dataset.Dataset{
		"friedman":       nonlinearRegression(800, 11),
		"friedman-x1e6":  scale(nonlinearRegression(800, 12), 1e6),
		"friedman-x1e-6": scale(nonlinearRegression(800, 13), 1e-6),
		"circle":         circleClassification(900, 14),
		"circle-x37.5":   scale(circleClassification(900, 15), 37.5),
	})
}

// TestQuantOverflowFallsBack holds both ensembles to the same contract
// when split thresholds lie beyond math.MaxFloat32, where the removed
// float32 path had no form and fell back to the exact one.
func TestQuantOverflowFallsBack(t *testing.T) {
	d := dataset.New(dataset.Regression, "x")
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 200; i++ {
		x := rng.Float64() * 1e39 // splits land beyond math.MaxFloat32
		d.Add([]float64{x}, x/1e39)
	}
	if stump := tree.New(tree.Config{MaxDepth: 1}); stump.Fit(d) != nil || stump.Nodes[0].Threshold <= math.MaxFloat32 {
		t.Fatal("root split is not past math.MaxFloat32")
	}
	assertBatchParity(t, map[string]*dataset.Dataset{"beyond-float32": d})
}
