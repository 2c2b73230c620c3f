package core

import (
	"context"
	"fmt"
	"sync"

	"nfvxai/internal/dataset"
	"nfvxai/internal/ml"
	"nfvxai/internal/ml/forest"
	"nfvxai/internal/ml/linear"
	"nfvxai/internal/ml/nn"
	"nfvxai/internal/ml/tree"
	"nfvxai/internal/sched"
	"nfvxai/internal/xai"

	// The explanation plane is assembled by side effect: every method
	// package registers itself in the xai registry from init. Importing
	// core therefore wires the full method set — the serving layer and the
	// pipeline dispatch by name through xai.LookupMethod/BuildExplainer.
	_ "nfvxai/internal/xai/anchors"
	_ "nfvxai/internal/xai/counterfactual"
	_ "nfvxai/internal/xai/intgrad"
	_ "nfvxai/internal/xai/lime"
	_ "nfvxai/internal/xai/pdp"
	_ "nfvxai/internal/xai/perm"
	_ "nfvxai/internal/xai/shap"
	_ "nfvxai/internal/xai/surrogate"
	_ "nfvxai/internal/xai/treeshap"
)

// ModelKind enumerates the model zoo used across experiments.
type ModelKind int

// Zoo members.
const (
	ModelLinear ModelKind = iota
	ModelTree
	ModelForest
	ModelGBT
	ModelMLP
)

// String implements fmt.Stringer.
func (k ModelKind) String() string {
	switch k {
	case ModelLinear:
		return "linear"
	case ModelTree:
		return "cart"
	case ModelForest:
		return "rf"
	case ModelGBT:
		return "gbt"
	case ModelMLP:
		return "mlp"
	default:
		return fmt.Sprintf("ModelKind(%d)", int(k))
	}
}

// ZooKinds lists all zoo members in report order.
func ZooKinds() []ModelKind {
	return []ModelKind{ModelLinear, ModelTree, ModelForest, ModelGBT, ModelMLP}
}

// TrainModel fits a fresh model of the given kind with the repository's
// default hyperparameters. For classification datasets, ModelLinear means
// logistic regression.
func TrainModel(kind ModelKind, train *dataset.Dataset, seed int64) (ml.Predictor, error) {
	var model ml.Trainable
	switch kind {
	case ModelLinear:
		if train.Task == dataset.Classification {
			model = &linear.Logistic{LR: 0.05, Epochs: 150, BatchSize: 64, Seed: seed}
		} else {
			// Telemetry features are collinear (rates, lags, EWMAs) and
			// span wildly different scales; standardized ridge keeps the
			// solve well posed.
			model = &linear.Regression{Ridge: 1e-2}
		}
	case ModelTree:
		model = tree.New(tree.Config{Task: train.Task, MaxDepth: 8, MinLeaf: 5, Seed: seed})
	case ModelForest:
		model = &forest.RandomForest{NumTrees: 40, MaxDepth: 10, MinLeaf: 3, Task: train.Task, Seed: seed}
	case ModelGBT:
		model = &forest.GradientBoosting{NumRounds: 120, LearningRate: 0.1, MaxDepth: 4, Task: train.Task, Seed: seed}
	case ModelMLP:
		model = &nn.MLP{Hidden: []int{48, 24}, Epochs: 60, BatchSize: 64, Task: train.Task, Seed: seed}
	default:
		return nil, fmt.Errorf("core: unknown model kind %d", int(kind))
	}
	if err := model.Fit(normalizeFor(kind, train)); err != nil {
		return nil, fmt.Errorf("core: training %v: %w", kind, err)
	}
	if needsScaling(kind) {
		// Scale-sensitive models see standardized inputs; wrap so the
		// public Predict accepts raw telemetry vectors.
		return &scaledModel{inner: model, scaler: dataset.FitStandard(train)}, nil
	}
	return model, nil
}

// scaledModel lets a model trained on standardized inputs (the MLP,
// linear and logistic zoo members) take raw telemetry vectors: each
// input is standardized with the training set's scaler,
// (x[j]-Mean[j])/Std[j], before it reaches the inner model.
type scaledModel struct {
	inner  ml.Predictor
	scaler *dataset.StandardScaler
}

// scaledChunk is the most rows PredictBatch standardizes and hands to the
// inner model at once. It equals the MLP's own chunk size, so an inner
// MLP batch runs on the calling goroutine instead of fanning out again.
const scaledChunk = 512

// scaledRows is one sched chunk's standardized rows: the flat backing
// the rows are written into and the row headers the inner model reads.
type scaledRows struct {
	buf  []float64
	rows [][]float64
}

var scaledPool = sync.Pool{New: func() any { return new(scaledRows) }}

// Predict implements ml.Predictor on raw (unscaled) inputs.
func (s *scaledModel) Predict(x []float64) float64 {
	return s.inner.Predict(s.scaler.Transform(x))
}

// PredictBatch implements ml.BatchPredictor. Rows are standardized with
// Predict's transform, in parallel over the shared sched pool, into
// rows checked out of scaledPool once per sched chunk, and each run of
// at most scaledChunk rows goes to the inner model's batch path; a
// steady-state batch allocates no vector per row and no row headers.
func (s *scaledModel) PredictBatch(X [][]float64, out []float64) {
	p := len(s.scaler.Mean)
	sched.ParallelFor(len(X), scaledChunk, func(plo, phi int) {
		sr := scaledPool.Get().(*scaledRows)
		defer scaledPool.Put(sr)
		if cap(sr.buf) < scaledChunk*p {
			sr.buf = make([]float64, scaledChunk*p)
		}
		if cap(sr.rows) < scaledChunk {
			sr.rows = make([][]float64, scaledChunk)
		}
		buf, rows := sr.buf, sr.rows[:scaledChunk]
		for lo := plo; lo < phi; lo += scaledChunk {
			hi := min(lo+scaledChunk, phi)
			for r, x := range X[lo:hi] {
				if len(x) != p {
					panic(fmt.Sprintf("core: input width %d != %d", len(x), p))
				}
				z := buf[r*p : (r+1)*p]
				s.scaler.TransformInto(z, x)
				rows[r] = z
			}
			ml.PredictBatchInto(s.inner, rows[:hi-lo], out[lo:hi])
		}
	})
}

// Standardized returns the two halves of the wrapper: the inner model
// and the transform from a raw input to the inner model's input. For
// every x, Predict(x) is inner.Predict of the transformed x. An
// explainer whose perturbed rows mix a few raw rows feature by feature
// (KernelSHAP) can transform those rows once and mix the results, which
// gives the same inner inputs bit for bit, since the transform scales
// each feature on its own.
func (s *scaledModel) Standardized() (inner ml.Predictor, transform func(dst, x []float64)) {
	return s.inner, s.scaler.TransformInto
}

// gradModel mirrors intgrad.GradModel so the wrapper can forward
// differentiability without importing the explainer package.
type gradModel interface {
	Gradient(x []float64) []float64
}

// Gradient implements the differentiable-predictor contract through the
// standardizing wrapper via the chain rule: for z = (x − μ)/σ,
// ∂f(z)/∂x_j = (∂f/∂z_j)/σ_j. This keeps gradient-based explainers
// (intgrad) available on the scale-sensitive zoo members (MLP, linear,
// logistic). Inner models without an analytic gradient fall back to
// central finite differences on the raw input.
func (s *scaledModel) Gradient(x []float64) []float64 {
	if gm, ok := s.inner.(gradModel); ok {
		g := gm.Gradient(s.scaler.Transform(x))
		out := make([]float64, len(g))
		for j := range g {
			out[j] = g[j] / s.scaler.Std[j]
		}
		return out
	}
	const h = 1e-5
	out := make([]float64, len(x))
	z := append([]float64(nil), x...)
	for j := range x {
		z[j] = x[j] + h
		up := s.Predict(z)
		z[j] = x[j] - h
		down := s.Predict(z)
		z[j] = x[j]
		out[j] = (up - down) / (2 * h)
	}
	return out
}

// needsScaling reports whether the model kind trains on standardized
// inputs (gradient-trained or ridge-penalized); tree models consume raw
// features.
func needsScaling(kind ModelKind) bool {
	return kind == ModelMLP || kind == ModelLinear
}

// normalizeFor standardizes inputs for scale-sensitive models.
func normalizeFor(kind ModelKind, train *dataset.Dataset) *dataset.Dataset {
	if needsScaling(kind) {
		return dataset.Apply(train, dataset.FitStandard(train))
	}
	return train
}

// DefaultMethod names the preferred local explanation method for the
// model: exact TreeSHAP for tree ensembles, KernelSHAP otherwise.
// Classification GBTs fall back to KernelSHAP because TreeSHAP would
// explain the margin rather than the probability output.
func DefaultMethod(model ml.Predictor) string {
	switch m := model.(type) {
	case *tree.Tree, *forest.RandomForest:
		return "treeshap"
	case *forest.GradientBoosting:
		if m.Task == dataset.Regression {
			return "treeshap"
		}
		return "kernelshap"
	default:
		return "kernelshap"
	}
}

// Explain builds the default local explainer for the model through the
// xai method registry. Kept as the one-call constructor for auditing
// paths that explain ad-hoc models outside a Pipeline.
func Explain(model ml.Predictor, background [][]float64, names []string, samples int, seed int64) (xai.Explainer, string) {
	name := DefaultMethod(model)
	e, m, err := xai.BuildExplainer(name, xai.Target{Model: model, Background: background, Names: names},
		xai.Options{Samples: samples, Seed: seed})
	if err != nil {
		// The default methods build unconditionally for every zoo model
		// with a non-empty background; a failure here is a misconfigured
		// call (e.g. KernelSHAP with no background), surfaced at Explain
		// time like the pre-registry constructors did.
		return errExplainer{err: err}, name
	}
	return e, m.Name
}

// errExplainer defers a build-time failure to the first Explain call.
type errExplainer struct{ err error }

func (e errExplainer) Explain(context.Context, []float64) (xai.Attribution, error) {
	return xai.Attribution{}, e.err
}
