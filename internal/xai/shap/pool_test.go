package shap

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"nfvxai/internal/ml"
)

// TestScratchReuseParity runs explains of different shapes back to back
// on one goroutine, so each call checks out the scratch the previous,
// differently shaped call released, and then runs the sequence again in
// reverse, so every call follows a different predecessor: each
// second-pass attribution must equal its first-pass twin bit for bit. A
// missing clear of the mask backing (draws only set bits) or of the
// masked tree evaluator's accumulator (written with +=) leaks one call's
// state into the next and breaks the equality.
func TestScratchReuseParity(t *testing.T) {
	rf, bg, xf := fitForest(t, 3)
	rng := rand.New(rand.NewSource(21))
	wide := randomBackground(rng, 15, 12)
	xw := randomBackground(rng, 1, 12)[0]
	nonlinear := ml.PredictorFunc(func(x []float64) float64 {
		return x[0]*x[1] + math.Sin(x[2]) - x[5]*x[11] + 0.5*x[7]
	})
	w24 := randomBackground(rng, 1, 24)[0]
	x24 := randomBackground(rng, 1, 24)[0]
	bg24 := randomBackground(rng, 20, 24)
	bg5 := randomBackground(rng, 12, 5)
	x5 := []float64{1, -0.5, 0.7, 2, -1}
	interact5 := ml.PredictorFunc(func(x []float64) float64 {
		return x[0]*x[1] + math.Exp(0.3*x[2]) - x[3]*x[4]
	})

	type step struct {
		name     string
		k        *Kernel
		x        []float64
		deadline bool
	}
	// Fresh kernels on each pass: only the pooled scratch carries over.
	steps := func() []step {
		return []step{
			{name: "forest (masked tree evaluator, enumerated)", k: &Kernel{Model: rf, Background: bg, NumSamples: 512, Seed: 5}, x: xf},
			{name: "12-feature generic model", k: &Kernel{Model: nonlinear, Background: wide, NumSamples: 300, Seed: 8}, x: xw},
			{name: "progressive, fixed block count", k: &Kernel{Model: linearModel{w: w24, c: 1}, Background: bg24,
				NumSamples: 512, Seed: 99, ConvergeTol: -1}, x: x24, deadline: true},
			{name: "5-feature enumeration", k: &Kernel{Model: interact5, Background: bg5, NumSamples: 4096}, x: x5},
			{name: "forest on a 10-row background", k: &Kernel{Model: rf, Background: bg[:10], NumSamples: 512, Seed: 5}, x: xf},
		}
	}
	run := func(reverse bool) [][]float64 {
		sts := steps()
		out := make([][]float64, len(sts))
		for n := range sts {
			i := n
			if reverse {
				i = len(sts) - 1 - n
			}
			st := sts[i]
			ctx := context.Background()
			if st.deadline {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Minute)
				defer cancel()
			}
			attr, err := st.k.Explain(ctx, st.x)
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			if st.deadline && (attr.Diag == nil || attr.Diag.Blocks != 4) {
				t.Fatalf("%s: diag %+v, want 4 progressive blocks", st.name, attr.Diag)
			}
			out[i] = attr.Phi
		}
		return out
	}
	first := run(false)
	second := run(true)
	for i, st := range steps() {
		for j := range first[i] {
			if math.Float64bits(first[i][j]) != math.Float64bits(second[i][j]) {
				t.Fatalf("%s: phi[%d] = %v on reuse, %v on the first pass", st.name, j, second[i][j], first[i][j])
			}
		}
	}
}
