package xai_test

import (
	"errors"
	"testing"

	"nfvxai/internal/xai"
	_ "nfvxai/internal/xai/anchors"
	_ "nfvxai/internal/xai/intgrad"
	_ "nfvxai/internal/xai/lime"
	_ "nfvxai/internal/xai/shap"
)

// gradLine is a differentiable two-feature model every sampling method
// accepts.
type gradLine struct{}

func (gradLine) Predict(x []float64) float64  { return x[0] - 2*x[1] }
func (gradLine) Gradient([]float64) []float64 { return []float64{1, -2} }

// TestBuildExplainerBoundsSampling: every sampling budget builds at
// MaxSamples and is ErrInvalidOptions one above it, before any storage
// is sized to it.
func TestBuildExplainerBoundsSampling(t *testing.T) {
	tgt := xai.Target{Model: gradLine{}, Background: [][]float64{{0, 0}, {1, 1}}, Names: []string{"a", "b"}}
	samples := func(n int) xai.Options { return xai.Options{Samples: n} }
	for _, tc := range []struct {
		method string
		opts   func(n int) xai.Options
	}{
		{"kernelshap", samples},
		{"lime", samples},
		{"anchors", samples},
		{"intgrad", func(n int) xai.Options { return xai.Options{Steps: n} }},
	} {
		if _, _, err := xai.BuildExplainer(tc.method, tgt, tc.opts(xai.MaxSamples)); err != nil {
			t.Errorf("%s at the cap: %v", tc.method, err)
		}
		if _, _, err := xai.BuildExplainer(tc.method, tgt, tc.opts(xai.MaxSamples+1)); !errors.Is(err, xai.ErrInvalidOptions) {
			t.Errorf("%s one over the cap: %v, want ErrInvalidOptions", tc.method, err)
		}
	}
}
