// Package lime implements LIME (Local Interpretable Model-agnostic
// Explanations, Ribeiro et al., KDD 2016) for tabular models. The
// neighborhood is generated by randomly replacing feature values with
// draws from a background dataset (the binary interpretable
// representation: 1 = feature kept at its original value); a ridge
// regression weighted by an exponential proximity kernel is fitted over
// the neighborhood, and its coefficients are the attribution.
package lime

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nfvxai/internal/mat"
	"nfvxai/internal/ml"
	"nfvxai/internal/xai"
)

// init registers LIME in the xai method registry: model-agnostic,
// background-dependent, deterministic for a fixed seed.
func init() {
	xai.Register(xai.Method{
		Name: "lime",
		Kind: xai.KindLocal,
		Caps: xai.Capabilities{
			NeedsBackground: true,
			SupportsBatch:   true,
			Deterministic:   true,
			Additive:        true,
		},
		Defaults: xai.Options{Samples: 1000, KeepProb: 0.5, Ridge: 0.01},
		Build: func(t xai.Target, o xai.Options) (xai.Explainer, error) {
			return &Explainer{
				Model:       t.Model,
				Background:  t.Background,
				NumSamples:  o.Samples,
				KernelWidth: o.KernelWidth,
				KeepProb:    o.KeepProb,
				Ridge:       o.Ridge,
				Seed:        o.Seed,
				Names:       t.Names,
			}, nil
		},
	})
}

// Explainer is a tabular LIME explainer.
type Explainer struct {
	Model ml.Predictor
	// Background supplies replacement values for "absent" features and the
	// feature scales used by the proximity kernel.
	Background [][]float64
	// NumSamples is the neighborhood size (default 1000).
	NumSamples int
	// KernelWidth is the proximity kernel width in units of scaled
	// distance (default 0.75·sqrt(d), LIME's default).
	KernelWidth float64
	// KeepProb is the probability a feature keeps its original value in a
	// perturbed sample (default 0.5).
	KeepProb float64
	// Ridge is the surrogate regularization (default 0.01).
	Ridge float64
	// Seed drives neighborhood sampling.
	Seed int64
	// Names are optional feature names copied into attributions.
	Names []string
}

// Result bundles the attribution with surrogate diagnostics.
type Result struct {
	xai.Attribution
	// LocalR2 is the kernel-weighted R² of the surrogate over the
	// neighborhood — LIME's local fidelity.
	LocalR2 float64
}

// Explain computes the LIME attribution at x.
func (e *Explainer) Explain(ctx context.Context, x []float64) (xai.Attribution, error) {
	res, err := e.ExplainDetailed(ctx, x)
	if err != nil {
		return xai.Attribution{}, err
	}
	return res.Attribution, nil
}

// ExplainDetailed computes the attribution plus fidelity diagnostics.
// Cancellation is checked before the neighborhood is scored — the
// dominant cost — and before the surrogate solve.
func (e *Explainer) ExplainDetailed(ctx context.Context, x []float64) (Result, error) {
	d := len(x)
	if d == 0 {
		return Result{}, errors.New("lime: empty input")
	}
	if len(e.Background) == 0 {
		return Result{}, errors.New("lime: empty background")
	}
	for i, b := range e.Background {
		if len(b) != d {
			return Result{}, fmt.Errorf("lime: background row %d has %d features, want %d", i, len(b), d)
		}
	}
	n := e.NumSamples
	if n <= 0 {
		n = 1000
	}
	keep := e.KeepProb
	if keep <= 0 || keep >= 1 {
		keep = 0.5
	}
	width := e.KernelWidth
	if width <= 0 {
		width = 0.75 * math.Sqrt(float64(d))
	}
	ridge := e.Ridge
	if ridge <= 0 {
		ridge = 0.01
	}
	// Design: column j is the binary "kept" indicator; plus intercept.
	// Proximity is measured in the interpretable (binary) space: the
	// distance of a perturbed sample is the number of replaced features,
	// which keeps the kernel weights well conditioned regardless of the
	// raw feature scales.
	// The perturbed neighborhood is assembled into one flat matrix (the
	// unperturbed anchor x as its last row) and scored with a single
	// batched model call instead of one Predict per sample.
	// All neighborhood storage, rng included, is pooled (pool.go) and
	// fully rewritten below before any read; nothing derived from it
	// outlives this call (phi copies out of the pooled coefficient vector
	// before release).
	buf := getNeighborhood(n+1, d, e.Seed+0x51A7)
	defer buf.release()
	rng := buf.rng
	a := mat.NewDenseData(n+1, d+1, buf.aData)
	y := buf.y
	w := buf.w
	zRows := buf.zRows
	for i := 0; i < n; i++ {
		bg := e.Background[rng.Intn(len(e.Background))]
		row := a.Row(i)
		z := zRows[i]
		var dist2 float64
		for j := 0; j < d; j++ {
			if rng.Float64() < keep {
				z[j] = x[j]
				row[j] = 1
			} else {
				z[j] = bg[j]
				row[j] = 0
				dist2++
			}
		}
		row[d] = 1 // intercept
		w[i] = math.Exp(-dist2 / (width * width))
	}
	// Include the unperturbed instance itself (all-ones, weight 1), which
	// anchors the surrogate at x.
	selfRow := a.Row(n)
	for j := 0; j <= d; j++ {
		selfRow[j] = 1
	}
	copy(zRows[n], x)
	w[n] = 1
	if err := xai.Canceled(ctx, "lime"); err != nil {
		return Result{}, err
	}
	ml.PredictBatchParallel(e.Model, zRows, y, 0)
	fx := y[n]

	if err := xai.Canceled(ctx, "lime"); err != nil {
		return Result{}, err
	}
	coef := buf.coef
	if err := mat.SolveWeightedRidgeInto(a, y, w, ridge, coef); err != nil {
		return Result{}, fmt.Errorf("lime: surrogate solve: %w", err)
	}
	//lint:allow poolalloc phi escapes into the returned Attribution
	phi := make([]float64, d)
	copy(phi, coef[:d])
	base := coef[d]

	// Kernel-weighted R² of the surrogate over the neighborhood.
	r2 := weightedR2(a, y, w, coef)

	return Result{
		Attribution: xai.Attribution{Names: e.Names, Phi: phi, Base: base, Value: fx},
		LocalR2:     r2,
	}, nil
}

func weightedR2(a *mat.Dense, y, w, coef []float64) float64 {
	rows, _ := a.Dims()
	var wsum, ymean float64
	for i := 0; i < rows; i++ {
		wsum += w[i]
		ymean += w[i] * y[i]
	}
	if wsum == 0 {
		return 0
	}
	ymean /= wsum
	var ssRes, ssTot float64
	for i := 0; i < rows; i++ {
		pred := mat.Dot(a.Row(i), coef)
		r := y[i] - pred
		tv := y[i] - ymean
		ssRes += w[i] * r * r
		ssTot += w[i] * tv * tv
	}
	// With a degenerate kernel (all weight on the anchored instance) the
	// weighted variance vanishes and the ratio is meaningless; report 0.
	if ssTot <= 1e-9 {
		return 0
	}
	return 1 - ssRes/ssTot
}
