package shap

import (
	"context"
	"slices"
)

// Hooks for the parity tests of package shap_test, which build their
// models with core; core imports shap, so those tests cannot live in this
// package.

// Draw is one draw of coalitions, copied out of the pooled scratch.
type Draw struct {
	Masks   [][]bool
	Weights []float64
	// First maps each draw to its first occurrence; nil for enumerated
	// masks, which never repeat.
	First []int
}

func copyDraw(masks [][]bool, weights []float64, first []int) Draw {
	dr := Draw{Masks: make([][]bool, len(masks)), Weights: slices.Clone(weights), First: slices.Clone(first)}
	for i, m := range masks {
		dr.Masks[i] = slices.Clone(m)
	}
	return dr
}

// ClassicDraw is the draw Explain's classic (no-deadline) path makes for
// a d-feature instance.
func (k *Kernel) ClassicDraw(d int) Draw {
	sc := getScratch()
	defer sc.release()
	if total := (1 << uint(d)) - 2; d <= 20 && total <= k.NumSamples {
		masks, weights := enumerateCoalitions(d, sc)
		return copyDraw(masks, weights, nil)
	}
	sc.rng.Seed(k.Seed + 0x9E3779B9)
	return copyDraw(sampleCoalitions(d, k.NumSamples, sc))
}

// ProgressiveDraws are the first n blocks of BlockSamples coalitions the
// progressive path draws from its one seeded stream.
func (k *Kernel) ProgressiveDraws(d, n int) []Draw {
	sc := getScratch()
	defer sc.release()
	sc.rng.Seed(k.Seed + 0x9E3779B9)
	out := make([]Draw, n)
	for b := range out {
		out[b] = copyDraw(sampleCoalitions(d, k.BlockSamples, sc))
	}
	return out
}

// Values evaluates a draw's coalitions as Explain does, repeats through
// dr.First; a Draw with First nil evaluates every draw.
func (k *Kernel) Values(ctx context.Context, x []float64, dr Draw) ([]float64, error) {
	sc := getScratch()
	defer sc.release()
	vals := make([]float64, len(dr.Masks))
	err := k.evalCoalitions(ctx, x, dr.Masks, dr.First, vals, sc)
	return vals, err
}

// CoalitionValue is the row-at-a-time reference, coalitionValue.
func (k *Kernel) CoalitionValue(x []float64, mask []bool) float64 { return k.coalitionValue(x, mask) }

// Phi solves a draw's constrained WLS system for the given coalition
// values, as Explain and each progressive block do.
func (k *Kernel) Phi(x []float64, dr Draw, vals []float64) ([]float64, error) {
	sc := getScratch()
	defer sc.release()
	return solvePhi(dr.Masks, dr.Weights, vals, k.baseValue(), k.Model.Predict(x), k.ridge(), sc)
}

// Evaluator reports which evaluator k chose at its first evaluation: the
// masked tree evaluator, and the generic one on a standardizing
// wrapper's inner model.
func (k *Kernel) Evaluator() (masked, standardized bool) { return k.fast != nil, k.std != nil }
