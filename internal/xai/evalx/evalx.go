// Package evalx implements the explanation-quality metrics from the
// paper's evaluation: perturbation (deletion/insertion) curves, stability
// under input noise, rank agreement between attribution methods, and
// aggregate fidelity summaries. These are the measures that let the paper
// argue one explanation method should be trusted over another.
package evalx

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"nfvxai/internal/ml"
	"nfvxai/internal/stats"
	"nfvxai/internal/xai"
)

// DeletionCurve measures how fast the prediction collapses toward the
// baseline as the top-ranked features (per the attribution) are replaced
// by their background means. A good explanation identifies the features
// whose removal moves the prediction the most, so its curve drops faster
// than a random-order curve.
type DeletionCurve struct {
	// Order is the feature deletion order used.
	Order []int
	// Pred[k] is the model output after deleting the first k features
	// (Pred[0] is the original prediction).
	Pred []float64
}

// AUC returns the area under the |Pred − finalBaseline| curve, normalized
// by steps; lower means faster collapse (better explanation).
func (c DeletionCurve) AUC() float64 {
	if len(c.Pred) < 2 {
		return 0
	}
	final := c.Pred[len(c.Pred)-1]
	var area float64
	for _, p := range c.Pred {
		area += math.Abs(p - final)
	}
	return area / float64(len(c.Pred))
}

// Deletion computes the deletion curve for x under the given feature
// order, replacing deleted features with the background column means.
// All len(order)+1 cumulative-deletion rows are materialized up front and
// scored with one call through the model's batch-inference fast path,
// matching a per-row Predict loop bit for bit.
func Deletion(model ml.Predictor, x []float64, order []int, background [][]float64) (DeletionCurve, error) {
	if len(background) == 0 {
		return DeletionCurve{}, errors.New("evalx: empty background")
	}
	means := xai.ColumnMeans(background)
	d := len(x)
	n := len(order) + 1
	backing := make([]float64, n*d)
	rows := make([][]float64, n)
	cur := backing[:d]
	copy(cur, x)
	rows[0] = cur
	for k, j := range order {
		if j < 0 || j >= d {
			return DeletionCurve{}, errors.New("evalx: order index out of range")
		}
		next := backing[(k+1)*d : (k+2)*d]
		copy(next, cur)
		next[j] = means[j]
		rows[k+1] = next
		cur = next
	}
	preds := make([]float64, n)
	ml.PredictBatchInto(model, rows, preds)
	return DeletionCurve{Order: order, Pred: preds}, nil
}

// DeletionGap compares attribution-ordered deletion against random-order
// deletion averaged over trials: positive gap means the attribution
// collapses the prediction faster than chance (the paper's Figure 3
// statistic, averaged over instances).
func DeletionGap(model ml.Predictor, x []float64, attr xai.Attribution, background [][]float64, trials int, seed int64) (float64, error) {
	guided, err := Deletion(model, x, attr.Ranking(), background)
	if err != nil {
		return 0, err
	}
	if trials <= 0 {
		trials = 10
	}
	rng := rand.New(rand.NewSource(seed + 0xDE1))
	d := len(x)
	var randAUC float64
	for t := 0; t < trials; t++ {
		order := rng.Perm(d)
		c, err := Deletion(model, x, order, background)
		if err != nil {
			return 0, err
		}
		randAUC += c.AUC()
	}
	randAUC /= float64(trials)
	return randAUC - guided.AUC(), nil
}

// StabilityScaled measures explanation robustness: explain x and noisy
// copies x+ε with ε_j ~ N(0, sigma[j]²), and report the mean Spearman rank
// correlation between the original |attribution| and each noisy one
// (1.0 = perfectly stable). Per-feature noise scales are what
// heterogeneous telemetry features require.
func StabilityScaled(ctx context.Context, explainer xai.Explainer, x []float64, sigma []float64, trials int, seed int64) (float64, error) {
	if len(sigma) != len(x) {
		return 0, errors.New("evalx: sigma length mismatch")
	}
	if trials <= 0 {
		trials = 5
	}
	base, err := explainer.Explain(ctx, x)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed + 0x57AC))
	var total float64
	noisy := make([]float64, len(x))
	for t := 0; t < trials; t++ {
		for j := range x {
			noisy[j] = x[j] + rng.NormFloat64()*sigma[j]
		}
		a, err := explainer.Explain(ctx, noisy)
		if err != nil {
			return 0, err
		}
		total += stats.Spearman(absVec(base.Phi), absVec(a.Phi))
	}
	return total / float64(trials), nil
}

// RankAgreement returns the Spearman correlation between the |Phi|
// rankings of two attributions (or any two importance vectors).
func RankAgreement(a, b []float64) float64 {
	return stats.Spearman(absVec(a), absVec(b))
}

// TopKIntersection returns |topK(a) ∩ topK(b)| / k, a second agreement
// measure that only cares about the head of the ranking.
func TopKIntersection(a, b []float64, k int) float64 {
	if k <= 0 || len(a) != len(b) || len(a) == 0 {
		return 0
	}
	if k > len(a) {
		k = len(a)
	}
	ta := xai.Attribution{Phi: a}.TopK(k)
	tb := xai.Attribution{Phi: b}.TopK(k)
	set := map[int]bool{}
	for _, j := range ta {
		set[j] = true
	}
	hits := 0
	for _, j := range tb {
		if set[j] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// FidelitySummary aggregates additivity errors over a batch of
// attributions (mean and max |base + Σφ − f(x)|).
type FidelitySummary struct {
	MeanAdditivityErr float64
	MaxAdditivityErr  float64
	N                 int
}

// SummarizeFidelity computes a FidelitySummary.
func SummarizeFidelity(attrs []xai.Attribution) FidelitySummary {
	var s FidelitySummary
	s.N = len(attrs)
	for _, a := range attrs {
		e := a.AdditivityError()
		s.MeanAdditivityErr += e
		if e > s.MaxAdditivityErr {
			s.MaxAdditivityErr = e
		}
	}
	if s.N > 0 {
		s.MeanAdditivityErr /= float64(s.N)
	}
	return s
}

func absVec(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = math.Abs(v)
	}
	return out
}
