package shap_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nfvxai/internal/core"
	"nfvxai/internal/dataset"
	"nfvxai/internal/ml"
	"nfvxai/internal/nfv/telemetry"
	"nfvxai/internal/xai/shap"
)

// The parity tests of KernelSHAP's two evaluation shortcuts: a sampled
// coalition that repeats an earlier draw is evaluated once, and a
// standardizing wrapper's inner model is evaluated on inputs
// standardized once. Every coalition value and attribution is checked
// by its bits against two references that take neither shortcut:
//
//   - the evaluator as it ran before the shortcuts: every draw evaluated,
//     and a wrapper reached through a forwarding decorator that hides its
//     halves, so its own Predict and PredictBatch run;
//   - the row-at-a-time reference (Kernel.RowAtATime, whose coalition
//     value is coalitionValue).
//
// Two differences from the second predate the shortcuts and are
// allowed. The masked tree evaluator agrees with coalitionValue only to
// float reassociation. And where a coalition value is NaN, its payload
// can differ: when two rows give NaNs with different payloads, the mean
// keeps whichever operand the compiled add puts first, and the batched
// reduction and coalitionValue's compile that add differently. A reply
// never holds a NaN (it is a 422), so no client sees a payload.

var (
	webOnce                     sync.Once
	webMLP, webLinear, webTrees *core.Pipeline
)

// webPipelines trains the served shape: web/{mlp,linear,rf}/util on one
// virtual hour at seed 1, pipeline seed 2 (26 features, a 60-row
// background).
func webPipelines(t *testing.T) (mlp, linear, forest *core.Pipeline) {
	t.Helper()
	webOnce.Do(func() {
		ds, err := core.WebScenario().GenerateDataset(1, 1, telemetry.TargetBottleneckUtil)
		if err != nil {
			t.Fatal(err)
		}
		train := func(kind core.ModelKind) *core.Pipeline {
			p, err := core.NewPipeline(kind, ds, 2)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		webMLP, webLinear, webTrees = train(core.ModelMLP), train(core.ModelLinear), train(core.ModelForest)
	})
	if webMLP == nil || webLinear == nil || webTrees == nil {
		t.Fatal("web pipelines failed to train")
	}
	return webMLP, webLinear, webTrees
}

// synthetic trains a zoo model of the given kind (the MLP and linear
// kinds behind core's standardizing wrapper) on d random features, and
// returns it with a 20-row background and an instance.
func synthetic(t *testing.T, kind core.ModelKind, d int, seed int64) (ml.Predictor, [][]float64, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, d)
	for j := range names {
		names[j] = fmt.Sprintf("f%d", j)
	}
	ds := dataset.New(dataset.Regression, names...)
	for i := 0; i < 240; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.NormFloat64()*float64(1+j%5) + float64(j)
		}
		ds.Add(x, math.Sin(x[0])*3+x[1]*x[2]-x[d-1]+0.1*rng.NormFloat64())
	}
	m, err := core.TrainModel(kind, ds, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m, ds.X[:20], ds.X[100]
}

// withSpecials returns copies of x and bg holding NaN, ±0, ±Inf and the
// smallest subnormal in x and in the first background rows.
func withSpecials(x []float64, bg [][]float64) ([]float64, [][]float64) {
	specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 5e-324}
	x = append([]float64(nil), x...)
	for i, v := range specials[:4] {
		x[3*i+1] = v
	}
	out := make([][]float64, len(bg))
	for i, b := range bg {
		out[i] = append([]float64(nil), b...)
		if i < len(specials) {
			out[i][2*i] = specials[i]
			out[i][len(b)-1-i] = specials[len(specials)-1-i]
		}
	}
	return x, out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameValue is sameBits, except that any two NaNs are the same value.
func sameValue(a, b float64) bool { return sameBits(a, b) || math.IsNaN(a) && math.IsNaN(b) }

// parityCase is one model, background, instance and sample budget.
type parityCase struct {
	name    string
	model   ml.Predictor
	bg      [][]float64
	x       []float64
	samples int
	seed    int64
	trees   bool // the masked tree evaluator; the others are standardizing wrappers
}

func (c parityCase) kernel() *shap.Kernel {
	return &shap.Kernel{Model: c.model, Background: c.bg, NumSamples: c.samples, Seed: c.seed}
}

// checkValues holds vals, k's values of dr, to both references (see the
// top of the file) and returns the first: the values of every draw from
// the evaluator as it ran before the shortcuts.
func (c parityCase) checkValues(t *testing.T, k *shap.Kernel, dr shap.Draw, vals []float64) []float64 {
	t.Helper()
	before := k
	if !c.trees {
		before = &shap.Kernel{Model: &rowCounter{m: c.model}, Background: c.bg, NumSamples: c.samples, Seed: c.seed}
	}
	every := dr
	every.First = nil
	old, err := before.Values(context.Background(), c.x, every)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range dr.Masks {
		if !sameBits(vals[i], old[i]) {
			t.Fatalf("%s: coalition %d: %v (%#x), before the shortcuts %v (%#x)", c.name, i, vals[i], math.Float64bits(vals[i]), old[i], math.Float64bits(old[i]))
		}
		v := k.CoalitionValue(c.x, m)
		if c.trees && math.Abs(vals[i]-v) > 1e-9*math.Max(1, math.Abs(v)) || !c.trees && !sameValue(vals[i], v) {
			t.Fatalf("%s: coalition %d: %v (%#x), coalitionValue %v (%#x)", c.name, i, vals[i], math.Float64bits(vals[i]), v, math.Float64bits(v))
		}
	}
	return old
}

// checkShortcut checks that k evaluated through the shortcut its case
// expects: the masked tree evaluator, or a wrapper's inner model.
func (c parityCase) checkShortcut(t *testing.T, k *shap.Kernel) {
	t.Helper()
	masked, standardized := k.Evaluator()
	if masked != c.trees || standardized == c.trees {
		t.Fatalf("%s: masked evaluator %v, standardized %v; want masked %v", c.name, masked, standardized, c.trees)
	}
}

// TestCoalitionShortcutParity holds the classic path's coalition values
// and attributions to the reference bit for bit: at the served shape, on
// a draw heavy with repeats (d = 12, 8,192 samples), at d = 65 (masks
// wider than one hash word) and with NaN, ±0, ±Inf and 5e-324 in x and
// the background.
func TestCoalitionShortcutParity(t *testing.T) {
	mlp, linear, forest := webPipelines(t)
	var cases []parityCase
	for _, p := range []*core.Pipeline{mlp, linear, forest} {
		name := "web/" + p.Kind.String()
		trees := p.Kind == core.ModelForest
		cases = append(cases, parityCase{name, p.Model, p.Background, p.Test.X[0], 1024, 2, trees})
		sx, sbg := withSpecials(p.Test.X[1], p.Background)
		cases = append(cases, parityCase{name + " specials", p.Model, sbg, sx, 1024, 2, trees})
	}
	for _, kind := range []core.ModelKind{core.ModelMLP, core.ModelLinear, core.ModelForest} {
		trees := kind == core.ModelForest
		m, bg, x := synthetic(t, kind, 12, 3)
		cases = append(cases, parityCase{fmt.Sprintf("d12/%v/8192", kind), m, bg, x, 8192, 5, trees})
		m, bg, x = synthetic(t, kind, 65, 4)
		cases = append(cases, parityCase{fmt.Sprintf("d65/%v", kind), m, bg, x, 512, 6, trees})
	}
	ctx := context.Background()
	for _, c := range cases {
		k := c.kernel()
		dr := k.ClassicDraw(len(c.x))
		distinct := 0
		for i, f := range dr.First {
			if f == i {
				distinct++
			} else if f > i || !slices.Equal(dr.Masks[f], dr.Masks[i]) {
				t.Fatalf("%s: draw %d maps to draw %d, not an earlier equal mask", c.name, i, f)
			}
		}
		if distinct == len(dr.Masks) {
			t.Fatalf("%s: no repeated coalition in %d draws", c.name, len(dr.Masks))
		}
		vals, err := k.Values(ctx, c.x, dr)
		if err != nil {
			t.Fatal(err)
		}
		c.checkShortcut(t, k)
		old := c.checkValues(t, k, dr, vals)
		got, err := k.Explain(ctx, c.x)
		if err != nil {
			t.Fatal(err)
		}
		want, err := k.Phi(c.x, dr, old)
		if err != nil {
			t.Fatal(err)
		}
		if !samePhi(got.Phi, want, sameBits) {
			t.Fatalf("%s: phi %v, before the shortcuts %v", c.name, got.Phi, want)
		}
		if !c.trees && c.samples == 1024 {
			row := c.kernel()
			row.RowAtATime = true
			ra, err := row.Explain(ctx, c.x)
			if err != nil {
				t.Fatal(err)
			}
			if !samePhi(got.Phi, ra.Phi, sameValue) || !sameValue(ra.Base, got.Base) || !sameBits(ra.Value, got.Value) {
				t.Fatalf("%s: phi %v, row-at-a-time %v", c.name, got.Phi, ra.Phi)
			}
		}
	}
}

// TestProgressiveShortcutParity checks the progressive path's blocks:
// each block's draws are deduplicated on their own, and the running mean
// of the block solutions equals the mean of the reference solutions.
func TestProgressiveShortcutParity(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []core.ModelKind{core.ModelMLP, core.ModelLinear, core.ModelForest} {
		m, bg, x := synthetic(t, kind, 12, 7)
		c := parityCase{name: fmt.Sprintf("progressive/%v", kind), model: m, bg: bg, x: x, seed: 8, trees: kind == core.ModelForest}
		const blocks, block = 4, 256
		k := &shap.Kernel{Model: m, Background: bg, NumSamples: blocks * block, Seed: c.seed, BlockSamples: block, ConvergeTol: -1}
		dctx, cancel := context.WithTimeout(ctx, time.Minute)
		got, err := k.Explain(dctx, x)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if got.Diag == nil || got.Diag.Blocks != blocks {
			t.Fatalf("%s: diag %+v, want %d blocks", c.name, got.Diag, blocks)
		}
		c.checkShortcut(t, k)
		mean := make([]float64, len(x))
		repeats := 0
		for b, dr := range k.ProgressiveDraws(len(x), blocks) {
			for i, f := range dr.First {
				if f != i {
					repeats++
				}
			}
			vals, err := k.Values(ctx, x, dr)
			if err != nil {
				t.Fatal(err)
			}
			old := c.checkValues(t, k, dr, vals)
			phiB, err := k.Phi(x, dr, old)
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range phiB { // explainProgressive's Welford mean
				mean[j] += (v - mean[j]) / float64(b+1)
			}
		}
		if repeats == 0 {
			t.Fatalf("%s: no repeated coalition within any block", c.name)
		}
		if !samePhi(got.Phi, mean, sameBits) {
			t.Fatalf("%s: phi %v, before the shortcuts %v", c.name, got.Phi, mean)
		}
	}
}

// TestEnumeratedAndExactShortcutParity covers the draws that never
// repeat: enumerated masks (2^d − 2 within the budget) and Exact, on the
// standardizing wrappers. Exact's reference is Exact over the wrapper's
// Predict alone, which hides both the wrapper's halves and its batch
// path.
func TestEnumeratedAndExactShortcutParity(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []core.ModelKind{core.ModelMLP, core.ModelLinear} {
		m, bg, x := synthetic(t, kind, 8, 9)
		c := parityCase{name: fmt.Sprintf("enumerated/%v", kind), model: m, bg: bg, x: x, samples: 4096}
		k := c.kernel()
		dr := k.ClassicDraw(len(x))
		if dr.First != nil || len(dr.Masks) != 1<<8-2 {
			t.Fatalf("%s: %d masks, first %v; want the 254 enumerated masks", c.name, len(dr.Masks), dr.First != nil)
		}
		vals, err := k.Values(ctx, x, dr)
		if err != nil {
			t.Fatal(err)
		}
		c.checkShortcut(t, k)
		c.checkValues(t, k, dr, vals)
		got, err := k.Explain(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		row := c.kernel()
		row.RowAtATime = true
		want, err := row.Explain(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		if !samePhi(got.Phi, want.Phi, sameBits) {
			t.Fatalf("%s: phi %v, row-at-a-time %v", c.name, got.Phi, want.Phi)
		}

		exact, err := shap.Exact(ctx, m, bg, x)
		if err != nil {
			t.Fatal(err)
		}
		exactRef, err := shap.Exact(ctx, ml.PredictorFunc(m.Predict), bg, x)
		if err != nil {
			t.Fatal(err)
		}
		if !samePhi(exact.Phi, exactRef.Phi, sameBits) || !sameBits(exact.Base, exactRef.Base) || !sameBits(exact.Value, exactRef.Value) {
			t.Fatalf("exact/%v: %+v, reference %+v", kind, exact, exactRef)
		}
	}
}

// standardizer is the method shap detects on core's wrapper.
type standardizer interface {
	Standardized() (ml.Predictor, func(dst, x []float64))
}

// rowCounter counts the rows a model evaluates. It forwards Predict and
// PredictBatch only, so like explainbench's timing decorator it hides a
// wrapper's halves.
type rowCounter struct {
	m    ml.Predictor
	rows atomic.Int64
}

func (c *rowCounter) Predict(x []float64) float64 {
	c.rows.Add(1)
	return c.m.Predict(x)
}

func (c *rowCounter) PredictBatch(X [][]float64, out []float64) {
	c.rows.Add(int64(len(X)))
	ml.PredictBatchInto(c.m, X, out)
}

// mismatchedWrapper is a wrapper whose halves do not reproduce it: its
// transform skips the standardization.
type mismatchedWrapper struct {
	wrapped ml.Predictor
	inner   *rowCounter
}

func (w mismatchedWrapper) Predict(x []float64) float64 { return w.wrapped.Predict(x) }

func (w mismatchedWrapper) Standardized() (ml.Predictor, func(dst, x []float64)) {
	return w.inner, func(dst, x []float64) { copy(dst, x) }
}

// TestMismatchedWrapperParity: a wrapper whose inner model does not
// reproduce its Predict is evaluated through Predict, and its
// attribution keeps the reference bits; the inner model sees only the
// check's background rows.
func TestMismatchedWrapperParity(t *testing.T) {
	mlp, _, _ := webPipelines(t)
	sm, ok := mlp.Model.(standardizer)
	if !ok {
		t.Fatalf("web/mlp model %T has no Standardized method", mlp.Model)
	}
	inner, _ := sm.Standardized()
	w := mismatchedWrapper{wrapped: mlp.Model, inner: &rowCounter{m: inner}}
	ctx := context.Background()
	k := &shap.Kernel{Model: w, Background: mlp.Background, NumSamples: 1024, Seed: 2}
	got, err := k.Explain(ctx, mlp.Test.X[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, standardized := k.Evaluator(); standardized {
		t.Fatal("the mismatched wrapper's inner model was accepted")
	}
	if n := w.inner.rows.Load(); n != int64(len(mlp.Background)) {
		t.Fatalf("inner model evaluated %d rows, want only the check's %d", n, len(mlp.Background))
	}
	row := &shap.Kernel{Model: mlp.Model, Background: mlp.Background, NumSamples: 1024, Seed: 2, RowAtATime: true}
	want, err := row.Explain(ctx, mlp.Test.X[0])
	if err != nil {
		t.Fatal(err)
	}
	if !samePhi(got.Phi, want.Phi, sameBits) {
		t.Fatalf("phi %v, row-at-a-time %v", got.Phi, want.Phi)
	}
}

// TestRowsPerExplainParity: an explain evaluates distinct draws ×
// background rows + 1 rows (the +1 is f(x)), the same for every
// instance, since the draws depend on the seed alone. explainbench's
// traced probe counts rows this way and refuses an instance-dependent
// count.
func TestRowsPerExplainParity(t *testing.T) {
	mlp, _, _ := webPipelines(t)
	c := &rowCounter{m: mlp.Model}
	k := &shap.Kernel{Model: c, Background: mlp.Background, NumSamples: 1024, Seed: mlp.Seed}
	ctx := context.Background()
	if _, err := k.Explain(ctx, mlp.Test.X[0]); err != nil { // computes the base value
		t.Fatal(err)
	}
	dr := k.ClassicDraw(len(mlp.Test.X[0]))
	distinct := 0
	for i, f := range dr.First {
		if f == i {
			distinct++
		}
	}
	want := int64(distinct*len(mlp.Background) + 1)
	for _, x := range mlp.Test.X[1:3] {
		before := c.rows.Load()
		if _, err := k.Explain(ctx, x); err != nil {
			t.Fatal(err)
		}
		if got := c.rows.Load() - before; got != want {
			t.Fatalf("%d rows in one explain, want %d distinct draws × %d background rows + 1 = %d", got, distinct, len(mlp.Background), want)
		}
	}
}

func samePhi(a, b []float64, same func(a, b float64) bool) bool {
	return slices.EqualFunc(a, b, same)
}
