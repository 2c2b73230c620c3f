// Package intgrad implements Integrated Gradients (Sundararajan, Taly &
// Yan, ICML 2017): attribution by integrating the model's input gradient
// along the straight path from a baseline to the input. IG satisfies the
// completeness axiom — attributions sum exactly to f(x) − f(baseline) in
// the limit of fine integration — making it the gradient-based
// counterpart to SHAP for differentiable models like the repository's
// MLP.
package intgrad

import (
	"context"
	"errors"
	"fmt"

	"nfvxai/internal/ml"
	"nfvxai/internal/xai"
)

// GradModel is a differentiable predictor.
type GradModel interface {
	Predict(x []float64) float64
	// Gradient returns ∂Predict/∂x at x.
	Gradient(x []float64) []float64
}

// init registers integrated gradients in the xai method registry. It is
// gradient-only: the model must implement GradModel (the repository's
// MLP, linear and logistic models do, including through the pipeline's
// standardizing wrapper). The baseline defaults to the background column
// means, the usual tabular reference point.
func init() {
	xai.Register(xai.Method{
		Name: "intgrad",
		Kind: xai.KindLocal,
		Caps: xai.Capabilities{
			NeedsBackground: true, // baseline = background means
			GradientOnly:    true,
			SupportsBatch:   true,
			Deterministic:   true,
			Additive:        true,
		},
		Defaults: xai.Options{Steps: 64},
		Compatible: func(m ml.Predictor) bool {
			_, ok := m.(GradModel)
			return ok
		},
		Build: func(t xai.Target, o xai.Options) (xai.Explainer, error) {
			gm, ok := t.Model.(GradModel)
			if !ok {
				return nil, fmt.Errorf("%w: intgrad needs a differentiable model", xai.ErrUnsupportedModel)
			}
			return &Explainer{
				Model:    gm,
				Baseline: xai.ColumnMeans(t.Background),
				Steps:    o.Steps,
				Names:    t.Names,
			}, nil
		},
	})
}

// Explainer computes integrated-gradients attributions.
type Explainer struct {
	Model GradModel
	// Baseline is the reference input (e.g. feature means); required.
	Baseline []float64
	// Steps is the Riemann resolution (default 64).
	Steps int
	// Names are optional feature names copied into attributions.
	Names []string
}

// Explain implements xai.Explainer; cancellation is checked once per
// integration step.
func (e *Explainer) Explain(ctx context.Context, x []float64) (xai.Attribution, error) {
	if len(x) == 0 {
		return xai.Attribution{}, errors.New("intgrad: empty input")
	}
	if len(e.Baseline) != len(x) {
		return xai.Attribution{}, fmt.Errorf("intgrad: baseline width %d != input %d", len(e.Baseline), len(x))
	}
	steps := e.Steps
	if steps <= 0 {
		steps = 64
	}
	d := len(x)
	avg := make([]float64, d)
	z := make([]float64, d)
	// Midpoint rule over alpha in (0, 1): markedly lower error than the
	// left Riemann sum at equal steps.
	for s := 0; s < steps; s++ {
		if err := xai.Canceled(ctx, "intgrad"); err != nil {
			return xai.Attribution{}, err
		}
		alpha := (float64(s) + 0.5) / float64(steps)
		for j := range z {
			z[j] = e.Baseline[j] + alpha*(x[j]-e.Baseline[j])
		}
		g := e.Model.Gradient(z)
		for j := range avg {
			avg[j] += g[j]
		}
	}
	phi := make([]float64, d)
	for j := range phi {
		phi[j] = (x[j] - e.Baseline[j]) * avg[j] / float64(steps)
	}
	return xai.Attribution{
		Names: e.Names,
		Phi:   phi,
		Base:  e.Model.Predict(e.Baseline),
		Value: e.Model.Predict(x),
	}, nil
}
