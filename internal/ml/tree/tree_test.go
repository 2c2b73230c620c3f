package tree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nfvxai/internal/dataset"
	"nfvxai/internal/ml/metrics"
)

func xorDataset(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(dataset.Classification, "a", "b")
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		y := 0.0
		if (x[0] > 0.5) != (x[1] > 0.5) {
			y = 1
		}
		d.Add(x, y)
	}
	return d
}

func stepDataset(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(dataset.Regression, "x", "noise")
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64() * 10, rng.NormFloat64()}
		y := 0.0
		switch {
		case x[0] > 7:
			y = 30
		case x[0] > 3:
			y = 10
		}
		d.Add(x, y)
	}
	return d
}

func TestRegressionTreeFitsStepFunction(t *testing.T) {
	d := stepDataset(1000, 1)
	tr := New(Config{Task: dataset.Regression, MaxDepth: 6})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	pred := make([]float64, d.Len())
	for i, x := range d.X {
		pred[i] = tr.Predict(x)
	}
	if r2 := metrics.R2(pred, d.Y); r2 < 0.999 {
		t.Fatalf("step-function R2 = %v", r2)
	}
	// The informative feature must dominate the importances.
	imp := tr.FeatureImportance()
	if imp[0] < 0.95 {
		t.Fatalf("importance = %v", imp)
	}
}

func TestClassificationTreeLearnsXOR(t *testing.T) {
	// XOR is the canonical case linear models cannot learn but depth-2
	// trees can.
	d := xorDataset(2000, 2)
	tr := New(Config{Task: dataset.Classification, MaxDepth: 4})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	prob := make([]float64, d.Len())
	for i, x := range d.X {
		prob[i] = tr.Predict(x)
	}
	rep := metrics.EvalClassification("tree", prob, d.Y)
	if rep.Accuracy < 0.95 {
		t.Fatalf("XOR accuracy = %v", rep.Accuracy)
	}
}

func TestTreeProbabilitiesInRange(t *testing.T) {
	d := xorDataset(500, 3)
	tr := New(Config{Task: dataset.Classification, MaxDepth: 3, MinLeaf: 20})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		p := tr.Predict([]float64{rng.Float64() * 2, rng.Float64() * 2})
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of range", p)
		}
	}
}

func TestMaxDepthRespected(t *testing.T) {
	d := stepDataset(500, 5)
	for _, depth := range []int{1, 2, 3, 5} {
		tr := New(Config{Task: dataset.Regression, MaxDepth: depth})
		if err := tr.Fit(d); err != nil {
			t.Fatal(err)
		}
		if got := tr.Depth(); got > depth {
			t.Fatalf("depth %d exceeds max %d", got, depth)
		}
	}
}

func TestMinLeafRespected(t *testing.T) {
	d := stepDataset(300, 6)
	tr := New(Config{Task: dataset.Regression, MaxDepth: 10, MinLeaf: 25})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	for _, n := range tr.Nodes {
		if n.IsLeaf() && n.Cover < 25 {
			t.Fatalf("leaf with cover %v < MinLeaf", n.Cover)
		}
	}
}

func TestCoverConsistency(t *testing.T) {
	// Parent cover equals sum of child covers at every interior node, and
	// root cover equals the dataset size.
	d := stepDataset(700, 7)
	tr := New(Config{Task: dataset.Regression, MaxDepth: 8})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	if tr.Nodes[0].Cover != float64(d.Len()) {
		t.Fatalf("root cover %v != %d", tr.Nodes[0].Cover, d.Len())
	}
	for i, n := range tr.Nodes {
		if n.IsLeaf() {
			continue
		}
		sum := tr.Nodes[n.Left].Cover + tr.Nodes[n.Right].Cover
		if math.Abs(sum-n.Cover) > 1e-9 {
			t.Fatalf("node %d cover %v != children sum %v", i, n.Cover, sum)
		}
	}
}

func TestLeafValueIsSubsetMean(t *testing.T) {
	d := stepDataset(400, 8)
	tr := New(Config{Task: dataset.Regression, MaxDepth: 4})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	// Group training rows by leaf and verify the leaf value is their mean.
	sums := map[int]float64{}
	counts := map[int]float64{}
	for i, x := range d.X {
		leaf := tr.LeafIndex(x)
		sums[leaf] += d.Y[i]
		counts[leaf]++
	}
	for leaf, c := range counts {
		mean := sums[leaf] / c
		if math.Abs(tr.Nodes[leaf].Value-mean) > 1e-9 {
			t.Fatalf("leaf %d value %v != subset mean %v", leaf, tr.Nodes[leaf].Value, mean)
		}
	}
}

func TestFitIndicesBootstrap(t *testing.T) {
	d := stepDataset(300, 10)
	rng := rand.New(rand.NewSource(11))
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = rng.Intn(d.Len())
	}
	tr := New(Config{Task: dataset.Regression, MaxDepth: 5})
	if err := tr.FitIndices(d, idx, nil); err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() < 2 {
		t.Fatal("bootstrap tree did not split")
	}
}

func TestSampleWeights(t *testing.T) {
	// Two conflicting clusters; weighting one heavily must pull leaf values
	// toward it.
	d := dataset.New(dataset.Regression, "x")
	for i := 0; i < 50; i++ {
		d.Add([]float64{0}, 0)
		d.Add([]float64{0}, 10)
	}
	idx := make([]int, d.Len())
	w := make([]float64, d.Len())
	for i := range idx {
		idx[i] = i
		if d.Y[i] == 10 {
			w[i] = 9
		} else {
			w[i] = 1
		}
	}
	tr := New(Config{Task: dataset.Regression})
	if err := tr.FitIndices(d, idx, w); err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{0}); math.Abs(got-9) > 1e-9 {
		t.Fatalf("weighted prediction = %v want 9", got)
	}
}

func TestEmptyFitError(t *testing.T) {
	tr := New(Config{Task: dataset.Regression})
	if err := tr.Fit(dataset.New(dataset.Regression, "x")); err == nil {
		t.Fatal("expected error")
	}
	if err := tr.FitIndices(stepDataset(10, 1), []int{0}, []float64{1}); err == nil {
		t.Fatal("expected sampleWeight length error")
	}
}

func TestPureNodeStopsSplitting(t *testing.T) {
	d := dataset.New(dataset.Regression, "x")
	for i := 0; i < 100; i++ {
		d.Add([]float64{float64(i)}, 42)
	}
	tr := New(Config{Task: dataset.Regression, MaxDepth: 10})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 1 {
		t.Fatalf("pure target grew %d leaves", tr.NumLeaves())
	}
	if tr.Predict([]float64{55}) != 42 {
		t.Fatal("stump value wrong")
	}
}

func TestMaxFeaturesSubsampling(t *testing.T) {
	// With MaxFeatures=1 and two equally informative duplicated features,
	// different seeds should (eventually) pick different features.
	rng := rand.New(rand.NewSource(12))
	d := dataset.New(dataset.Regression, "a", "b")
	for i := 0; i < 200; i++ {
		v := rng.Float64()
		y := 0.0
		if v > 0.5 {
			y = 1
		}
		d.Add([]float64{v, v}, y)
	}
	used := map[int]bool{}
	for seed := int64(0); seed < 10; seed++ {
		tr := New(Config{Task: dataset.Regression, MaxDepth: 1, MaxFeatures: 1, Seed: seed})
		if err := tr.Fit(d); err != nil {
			t.Fatal(err)
		}
		if !tr.Nodes[0].IsLeaf() {
			used[tr.Nodes[0].Feature] = true
		}
	}
	if len(used) < 2 {
		t.Fatalf("feature subsampling never varied the split: %v", used)
	}
}

func TestImportanceSumsToOne(t *testing.T) {
	d := stepDataset(500, 13)
	tr := New(Config{Task: dataset.Regression, MaxDepth: 6})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	imp := tr.FeatureImportance()
	var sum float64
	for _, v := range imp {
		if v < 0 {
			t.Fatalf("negative importance %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importances sum to %v", sum)
	}
}

func TestPropertyPredictionWithinTargetRange(t *testing.T) {
	// A CART prediction is always a weighted mean of training targets, so
	// it must lie within [min(Y), max(Y)].
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := dataset.New(dataset.Regression, "a", "b")
		n := 20 + rng.Intn(80)
		for i := 0; i < n; i++ {
			d.Add([]float64{rng.NormFloat64(), rng.NormFloat64()}, rng.NormFloat64()*10)
		}
		tr := New(Config{Task: dataset.Regression, MaxDepth: 6})
		if err := tr.Fit(d); err != nil {
			return false
		}
		lo, hi := d.Y[0], d.Y[0]
		for _, y := range d.Y {
			lo = math.Min(lo, y)
			hi = math.Max(hi, y)
		}
		for i := 0; i < 20; i++ {
			p := tr.Predict([]float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3})
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDeterministicFit(t *testing.T) {
	f := func(seed int64) bool {
		d := stepDataset(200, seed)
		a := New(Config{Task: dataset.Regression, MaxDepth: 5, Seed: 3})
		b := New(Config{Task: dataset.Regression, MaxDepth: 5, Seed: 3})
		if a.Fit(d) != nil || b.Fit(d) != nil {
			return false
		}
		if len(a.Nodes) != len(b.Nodes) {
			return false
		}
		for i := range a.Nodes {
			if a.Nodes[i] != b.Nodes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
