// Package forest implements tree ensembles: bagged random forests and
// gradient-boosted trees (squared loss for regression, logistic loss for
// binary classification). Both expose their underlying CART trees so the
// TreeSHAP explainer can attribute ensemble predictions exactly.
package forest

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"nfvxai/internal/dataset"
	"nfvxai/internal/ml/tree"
	"nfvxai/internal/sched"
)

// RandomForest is a bootstrap-aggregated ensemble of CART trees with
// per-split feature subsampling.
type RandomForest struct {
	// NumTrees is the ensemble size (default 50).
	NumTrees int
	// MaxDepth bounds each tree (default 10).
	MaxDepth int
	// MinLeaf is the per-leaf minimum (default 2).
	MinLeaf int
	// MaxFeatures per split; 0 = sqrt(p) for classification, p/3 for
	// regression (the usual defaults).
	MaxFeatures int
	// Task selects the split criterion and prediction semantics.
	Task dataset.Task
	// Seed drives bootstrap and feature subsampling.
	Seed int64

	Trees []*tree.Tree
}

// Fit trains the ensemble on d.
func (f *RandomForest) Fit(d *dataset.Dataset) error {
	if d.Len() == 0 || d.NumFeatures() == 0 {
		return errors.New("forest: empty dataset")
	}
	nTrees := f.NumTrees
	if nTrees <= 0 {
		nTrees = 50
	}
	depth := f.MaxDepth
	if depth <= 0 {
		depth = 10
	}
	minLeaf := f.MinLeaf
	if minLeaf <= 0 {
		minLeaf = 2
	}
	maxFeat := f.MaxFeatures
	if maxFeat <= 0 {
		p := d.NumFeatures()
		if f.Task == dataset.Classification {
			maxFeat = int(math.Sqrt(float64(p)))
		} else {
			maxFeat = p / 3
		}
		if maxFeat < 1 {
			maxFeat = 1
		}
	}
	// Pre-draw every tree's bootstrap sample and split seed from the one
	// forest RNG in the exact order the sequential loop consumed them, so
	// the parallel fit below is bit-identical to sequential fitting at the
	// same Seed.
	rng := rand.New(rand.NewSource(f.Seed + 0x5DEECE66D))
	f.Trees = make([]*tree.Tree, nTrees)
	n := d.Len()
	boot := make([][]int, nTrees)
	seeds := make([]int64, nTrees)
	for t := 0; t < nTrees; t++ {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		boot[t] = idx
		seeds[t] = rng.Int63()
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > nTrees {
		workers = nTrees
	}
	var (
		wg     sync.WaitGroup
		next   = make(chan int)
		errMu  sync.Mutex
		fitErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				tr := tree.New(tree.Config{
					Task:        f.Task,
					MaxDepth:    depth,
					MinLeaf:     minLeaf,
					MaxFeatures: maxFeat,
					Seed:        seeds[t],
				})
				if err := tr.FitIndices(d, boot[t], nil); err != nil {
					errMu.Lock()
					if fitErr == nil {
						fitErr = err
					}
					errMu.Unlock()
					continue
				}
				f.Trees[t] = tr
			}
		}()
	}
	for t := 0; t < nTrees; t++ {
		next <- t
	}
	close(next)
	wg.Wait()
	if fitErr != nil {
		f.Trees = nil
		return fitErr
	}
	return nil
}

// Predict implements ml.Predictor: the mean of tree outputs, which for
// classification trees (leaf value = positive fraction) is the forest's
// probability estimate.
func (f *RandomForest) Predict(x []float64) float64 {
	var s float64
	for _, t := range f.Trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.Trees))
}

// PredictBatch implements ml.BatchPredictor: rows are sharded over the
// shared sched pool, and each shard sums the trees' flattened batch
// outputs in ensemble order (so every row gets the same addition order —
// and thus bit-identical output — as a Predict loop).
func (f *RandomForest) PredictBatch(X [][]float64, out []float64) {
	shardEnsemble(len(f.Trees), X, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = 0
		}
		for _, t := range f.Trees {
			t.PredictBatchAdd(X[lo:hi], out[lo:hi], 1)
		}
		nt := float64(len(f.Trees))
		for i := lo; i < hi; i++ {
			out[i] /= nt
		}
	})
}

// FeatureImportance averages normalized gain importance across trees.
func (f *RandomForest) FeatureImportance() []float64 {
	if len(f.Trees) == 0 {
		return nil
	}
	out := make([]float64, f.Trees[0].NumFeatures())
	for _, t := range f.Trees {
		for j, v := range t.FeatureImportance() {
			out[j] += v
		}
	}
	for j := range out {
		out[j] /= float64(len(f.Trees))
	}
	return out
}

// ComponentTrees implements the treeshap.Ensemble contract: the additive
// decomposition of the model as (trees, per-tree weight, base value).
// A forest is the uniform average of its trees with no offset.
func (f *RandomForest) ComponentTrees() ([]*tree.Tree, []float64, float64) {
	w := make([]float64, len(f.Trees))
	for i := range w {
		w[i] = 1 / float64(len(f.Trees))
	}
	return f.Trees, w, 0
}

// GradientBoosting is a gradient-boosted tree ensemble. For regression it
// minimizes squared loss; for classification it boosts log-odds with
// logistic loss and Newton leaf steps, and Predict returns a probability.
type GradientBoosting struct {
	// NumRounds is the number of boosting rounds (default 100).
	NumRounds int
	// LearningRate is the shrinkage factor (default 0.1).
	LearningRate float64
	// MaxDepth bounds each weak learner (default 3).
	MaxDepth int
	// MinLeaf per-leaf minimum (default 5).
	MinLeaf int
	// Subsample is the row-sampling fraction per round (default 1.0).
	Subsample float64
	// Task selects the loss.
	Task dataset.Task
	// Seed drives subsampling.
	Seed int64

	Trees []*tree.Tree
	Base  float64 // initial prediction (mean target / prior log-odds)
}

// shrinkage is the learning rate in effect: LearningRate, or the 0.1
// default when LearningRate is not positive.
func (g *GradientBoosting) shrinkage() float64 {
	if g.LearningRate <= 0 {
		return 0.1
	}
	return g.LearningRate
}

// Fit trains the ensemble on d.
func (g *GradientBoosting) Fit(d *dataset.Dataset) error {
	if d.Len() == 0 || d.NumFeatures() == 0 {
		return errors.New("forest: empty dataset")
	}
	rounds := g.NumRounds
	if rounds <= 0 {
		rounds = 100
	}
	lr := g.shrinkage()
	depth := g.MaxDepth
	if depth <= 0 {
		depth = 3
	}
	minLeaf := g.MinLeaf
	if minLeaf <= 0 {
		minLeaf = 5
	}
	sub := g.Subsample
	if sub <= 0 || sub > 1 {
		sub = 1
	}
	rng := rand.New(rand.NewSource(g.Seed + 0x2545F4914F6CDD1D))
	n := d.Len()

	// Initial score.
	var mean float64
	for _, y := range d.Y {
		mean += y
	}
	mean /= float64(n)
	if g.Task == dataset.Classification {
		p := math.Min(math.Max(mean, 1e-6), 1-1e-6)
		g.Base = math.Log(p / (1 - p))
	} else {
		g.Base = mean
	}

	score := make([]float64, n)
	for i := range score {
		score[i] = g.Base
	}
	// residual holds the pseudo-residual targets for the weak learner; we
	// train trees on a view dataset sharing X but with replaced Y.
	residual := make([]float64, n)
	view := &dataset.Dataset{Names: d.Names, X: d.X, Y: residual, Task: dataset.Regression}

	g.Trees = g.Trees[:0]
	sampleSize := int(sub * float64(n))
	if sampleSize < 1 {
		sampleSize = 1
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for round := 0; round < rounds; round++ {
		for i := 0; i < n; i++ {
			if g.Task == dataset.Classification {
				residual[i] = d.Y[i] - sigmoid(score[i])
			} else {
				residual[i] = d.Y[i] - score[i]
			}
		}
		idx := perm
		if sampleSize < n {
			rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			idx = perm[:sampleSize]
		}
		tr := tree.New(tree.Config{
			Task:     dataset.Regression,
			MaxDepth: depth,
			MinLeaf:  minLeaf,
			Seed:     rng.Int63(),
		})
		if err := tr.FitIndices(view, idx, nil); err != nil {
			return err
		}
		if g.Task == dataset.Classification {
			newtonLeaves(tr, d, score, idx)
		}
		for i := 0; i < n; i++ {
			score[i] += lr * tr.Predict(d.X[i])
		}
		g.Trees = append(g.Trees, tr)
	}
	return nil
}

// newtonLeaves replaces each leaf's value with the Newton step
// Σ(y−p) / Σ p(1−p) over the training rows routed to that leaf, the
// standard second-order correction for logistic-loss boosting.
func newtonLeaves(tr *tree.Tree, d *dataset.Dataset, score []float64, idx []int) {
	num := make(map[int]float64)
	den := make(map[int]float64)
	for _, i := range idx {
		leaf := tr.LeafIndex(d.X[i])
		p := sigmoid(score[i])
		num[leaf] += d.Y[i] - p
		den[leaf] += p * (1 - p)
	}
	for leaf, nv := range num {
		dv := den[leaf]
		if dv < 1e-12 {
			dv = 1e-12
		}
		tr.Nodes[leaf].Value = nv / dv
	}
	tr.InvalidateFlat() // leaf values changed under the SoA snapshot
}

// PredictBatch implements ml.BatchPredictor; see RandomForest.PredictBatch
// for the sharding scheme. Accumulation starts at Base and adds the
// shrunk tree outputs in boosting order, matching RawScore exactly.
func (g *GradientBoosting) PredictBatch(X [][]float64, out []float64) {
	lr := g.shrinkage()
	shardEnsemble(len(g.Trees), X, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = g.Base
		}
		for _, t := range g.Trees {
			t.PredictBatchAdd(X[lo:hi], out[lo:hi], lr)
		}
		if g.Task == dataset.Classification {
			for i := lo; i < hi; i++ {
				out[i] = sigmoid(out[i])
			}
		}
	})
}

// shardEnsemble splits the rows of X into contiguous chunks over the
// shared sched pool. The minimum chunk keeps small batches (or tiny
// ensembles) inline: below ~16k tree·row evaluations the dispatch costs
// more than the traversals.
func shardEnsemble(nTrees int, X [][]float64, eval func(lo, hi int)) {
	minChunk := 1
	if nTrees > 0 {
		if mc := 8192 / nTrees; mc > 1 {
			minChunk = mc
		}
	}
	sched.ParallelFor(len(X), minChunk, eval)
}

// RawScore returns the additive ensemble output before any link function.
func (g *GradientBoosting) RawScore(x []float64) float64 {
	s := g.Base
	lr := g.shrinkage()
	for _, t := range g.Trees {
		s += lr * t.Predict(x)
	}
	return s
}

// Predict implements ml.Predictor. Classification returns P(y=1|x).
func (g *GradientBoosting) Predict(x []float64) float64 {
	s := g.RawScore(x)
	if g.Task == dataset.Classification {
		return sigmoid(s)
	}
	return s
}

// FeatureImportance averages normalized gain importance across rounds.
func (g *GradientBoosting) FeatureImportance() []float64 {
	if len(g.Trees) == 0 {
		return nil
	}
	out := make([]float64, g.Trees[0].NumFeatures())
	for _, t := range g.Trees {
		for j, v := range t.FeatureImportance() {
			out[j] += v
		}
	}
	var total float64
	for _, v := range out {
		total += v
	}
	if total > 0 {
		for j := range out {
			out[j] /= total
		}
	}
	return out
}

// ComponentTrees implements the treeshap.Ensemble contract. The returned
// attribution explains the ensemble's raw (margin) score; for
// classification that is the log-odds, which is the standard output space
// for TreeSHAP on boosted models.
func (g *GradientBoosting) ComponentTrees() ([]*tree.Tree, []float64, float64) {
	lr := g.shrinkage()
	w := make([]float64, len(g.Trees))
	for i := range w {
		w[i] = lr
	}
	return g.Trees, w, g.Base
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}
