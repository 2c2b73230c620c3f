// Evaluation through a standardizing wrapper's inner model.
//
// core's standardizing wrapper (the MLP and linear zoo members) maps each
// raw input to (x_j − μ_j)/σ_j before its inner model sees it. Every
// KernelSHAP perturbed row mixes x and one background row feature by
// feature, and the transform scales each feature on its own, so the
// standardized hybrid equals the hybrid of the standardized x and
// background row, bit for bit. The generic evaluator therefore builds its
// rows from a background standardized once per Kernel and an x
// standardized once per call, and hands them to the inner model: the
// same inputs the wrapper would have produced, without the per-row
// divisions.

package shap

import (
	"math"

	"nfvxai/internal/ml"
)

// standardizer mirrors core's standardizing wrapper (scaledModel.
// Standardized): its inner model and the transform from a raw input to
// the inner model's input. Declared locally, as componentEnsemble is.
type standardizer interface {
	Standardized() (inner ml.Predictor, transform func(dst, x []float64))
}

// standardizedModel is the per-Kernel state of the shortcut.
type standardizedModel struct {
	inner      ml.Predictor
	transform  func(dst, x []float64)
	background [][]float64 // the Kernel's background, transformed
}

// newStandardizedModel returns the shortcut when the model exposes a
// standardizing wrapper's halves and the inner model, on the
// standardized background, reproduces the wrapper's Predict on the raw
// background bit for bit; else nil, and the evaluator calls the model
// itself.
func newStandardizedModel(k *Kernel) *standardizedModel {
	s, ok := k.Model.(standardizer)
	if !ok {
		return nil
	}
	inner, transform := s.Standardized()
	bg := make([][]float64, len(k.Background))
	for i, b := range k.Background {
		bg[i] = make([]float64, len(b))
		transform(bg[i], b)
	}
	// The check runs the inner model's batch path, the one the evaluator
	// calls.
	got := make([]float64, len(bg))
	ml.PredictBatchParallel(inner, bg, got, 0)
	for i, b := range k.Background {
		if math.Float64bits(got[i]) != math.Float64bits(k.Model.Predict(b)) {
			return nil
		}
	}
	return &standardizedModel{inner: inner, transform: transform, background: bg}
}
