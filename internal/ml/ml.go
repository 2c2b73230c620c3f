// Package ml defines the model interfaces shared by the learning packages
// (linear, tree, forest, nn) and consumed by the explanation packages in
// internal/xai. Explainers are model-agnostic: they only require Predictor.
//
// Convention: for regression models Predict returns the predicted value;
// for binary classification models Predict returns P(y = 1 | x). This
// uniform real-valued output is exactly what attribution methods explain.
//
// Models that can evaluate many rows at once additionally implement
// BatchPredictor; the explainer hot loops route their perturbation
// matrices through PredictBatchInto / PredictBatchParallel, which dispatch
// to the native batch path when available and fall back to a plain
// Predict loop otherwise, so external models keep working unchanged.
package ml

import (
	"nfvxai/internal/dataset"
	"nfvxai/internal/sched"
)

// Predictor is the minimal model interface the explainers consume.
type Predictor interface {
	// Predict returns the model output for a single feature vector.
	Predict(x []float64) float64
}

// BatchPredictor is a model with a vectorized inference path. PredictBatch
// must produce, for every row, exactly the value Predict would return
// (bit-identical: the explainers' parity tests rely on it), and must be
// safe for concurrent use on a fitted model.
type BatchPredictor interface {
	Predictor
	// PredictBatch fills out[i] with the model output for X[i].
	// len(out) must equal len(X).
	PredictBatch(X [][]float64, out []float64)
}

// Trainable is a model that can be fitted to a dataset.
type Trainable interface {
	Predictor
	// Fit trains the model on d, replacing any previous state.
	Fit(d *dataset.Dataset) error
}

// PredictorFunc adapts a plain function to the Predictor interface.
type PredictorFunc func(x []float64) float64

// Predict implements Predictor.
func (f PredictorFunc) Predict(x []float64) float64 { return f(x) }

// PredictBatch applies m to every row of X, using the model's native batch
// path when it has one.
func PredictBatch(m Predictor, X [][]float64) []float64 {
	out := make([]float64, len(X))
	PredictBatchInto(m, X, out)
	return out
}

// PredictBatchInto fills out[i] with m's output for X[i], dispatching to
// the model's BatchPredictor fast path when implemented. len(out) must
// equal len(X).
func PredictBatchInto(m Predictor, X [][]float64, out []float64) {
	if bp, ok := m.(BatchPredictor); ok {
		bp.PredictBatch(X, out)
		return
	}
	for i, x := range X {
		out[i] = m.Predict(x)
	}
}

// minParallelRows is the batch size below which fanning a generic Predict
// loop across goroutines costs more than it saves.
const minParallelRows = 256

// PredictBatchParallel is PredictBatchInto with worker fan-out for models
// that lack a native batch path: the rows are split into contiguous
// chunks evaluated over the shared sched pool, so Predict must be safe
// for concurrent use — the same requirement xai.ExplainBatch already
// places on any served model. A Predictor that mutates shared state per
// call must either implement BatchPredictor or be wrapped before
// reaching the explainer hot paths. Native BatchPredictors are invoked
// with a single PredictBatch call (ensemble models shard internally over
// the same pool, which composes instead of deadlocking — see sched).
//
// workers is retained for API compatibility but ignored: the shared
// pool's size (sched.Configure) governs fan-out. Batches below
// minParallelRows run inline either way.
func PredictBatchParallel(m Predictor, X [][]float64, out []float64, workers int) {
	if bp, ok := m.(BatchPredictor); ok {
		bp.PredictBatch(X, out)
		return
	}
	_ = workers
	// minChunk of half the threshold keeps the historical cutoff: n >=
	// minParallelRows dispatches, anything smaller runs inline.
	sched.ParallelFor(len(X), minParallelRows/2, func(w *sched.Worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = m.Predict(X[i])
		}
	})
}
