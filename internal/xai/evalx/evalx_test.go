package evalx

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"nfvxai/internal/ml"
	"nfvxai/internal/xai"
	"nfvxai/internal/xai/shap"
)

func TestDeletionCurveShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := ml.PredictorFunc(func(x []float64) float64 { return 10*x[0] + x[1] })
	bg := make([][]float64, 50)
	for i := range bg {
		bg[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	x := []float64{3, 3}
	c, err := Deletion(model, x, []int{0, 1}, bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Pred) != 3 {
		t.Fatalf("curve length %d", len(c.Pred))
	}
	if c.Pred[0] != model.Predict(x) {
		t.Fatal("curve must start at the original prediction")
	}
	// Deleting the dominant feature first must move the prediction more
	// than deleting the weak one first.
	c2, err := Deletion(model, x, []int{1, 0}, bg)
	if err != nil {
		t.Fatal(err)
	}
	drop1 := math.Abs(c.Pred[1] - c.Pred[0])
	drop2 := math.Abs(c2.Pred[1] - c2.Pred[0])
	if drop1 <= drop2 {
		t.Fatalf("dominant-first drop %v <= weak-first drop %v", drop1, drop2)
	}
}

func TestDeletionGapPositiveForGoodAttribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	model := ml.PredictorFunc(func(x []float64) float64 {
		return 20*x[0] + 5*x[1] + 0.1*x[2] + 0.01*x[3]
	})
	bg := make([][]float64, 40)
	for i := range bg {
		bg[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	x := []float64{2, 2, 2, 2}
	k := &shap.Kernel{Model: model, Background: bg, NumSamples: 2048}
	attr, err := k.Explain(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	gap, err := DeletionGap(model, x, attr, bg, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if gap <= 0 {
		t.Fatalf("deletion gap %v should be positive for a correct attribution", gap)
	}
	// An adversarial (reversed) attribution must do worse than the true one.
	rev := attr
	rev.Phi = append([]float64(nil), attr.Phi...)
	for i, j := 0, len(rev.Phi)-1; i < j; i, j = i+1, j-1 {
		rev.Phi[i], rev.Phi[j] = rev.Phi[j], rev.Phi[i]
	}
	gapRev, err := DeletionGap(model, x, rev, bg, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if gapRev >= gap {
		t.Fatalf("reversed attribution gap %v >= true gap %v", gapRev, gap)
	}
}

func TestDeletionErrors(t *testing.T) {
	model := ml.PredictorFunc(func(x []float64) float64 { return 0 })
	if _, err := Deletion(model, []float64{1}, []int{0}, nil); err == nil {
		t.Fatal("expected empty-background error")
	}
	if _, err := Deletion(model, []float64{1}, []int{5}, [][]float64{{1}}); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

type fixedExplainer struct {
	phi func(x []float64) []float64
}

func (f fixedExplainer) Explain(_ context.Context, x []float64) (xai.Attribution, error) {
	return xai.Attribution{Phi: f.phi(x)}, nil
}

func TestStabilityPerfectAndNoisy(t *testing.T) {
	x := []float64{1, 1, 1}
	sigma := []float64{0.5, 0.5, 0.5}
	// An explainer that ignores the input is perfectly stable.
	stable := fixedExplainer{phi: func(x []float64) []float64 { return []float64{3, 2, 1} }}
	s, err := StabilityScaled(context.Background(), stable, x, sigma, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.999 {
		t.Fatalf("stable explainer score %v", s)
	}
	// An explainer whose ranking depends on noise scores lower.
	rng := rand.New(rand.NewSource(2))
	unstable := fixedExplainer{phi: func(x []float64) []float64 {
		return []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}}
	u, err := StabilityScaled(context.Background(), unstable, x, sigma, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if u >= s {
		t.Fatalf("unstable %v should score below stable %v", u, s)
	}
}

// TestStabilityScaledSigmaLength: a sigma vector whose length differs
// from x is an error, returned before anything is explained.
func TestStabilityScaledSigmaLength(t *testing.T) {
	calls := 0
	counting := fixedExplainer{phi: func(x []float64) []float64 {
		calls++
		return []float64{3, 2, 1}
	}}
	for _, sigma := range [][]float64{nil, {0.5, 0.5}, {0.5, 0.5, 0.5, 0.5}} {
		if _, err := StabilityScaled(context.Background(), counting, []float64{1, 1, 1}, sigma, 5, 1); err == nil {
			t.Fatalf("sigma of length %d accepted for 3 features", len(sigma))
		}
	}
	if calls != 0 {
		t.Fatalf("explained %d times before rejecting sigma", calls)
	}
}

func TestRankAgreement(t *testing.T) {
	a := []float64{3, 2, 1}
	if got := RankAgreement(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self agreement %v", got)
	}
	// Sign-insensitive: agreement uses |phi|.
	b := []float64{-3, -2, -1}
	if got := RankAgreement(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("sign-flipped agreement %v", got)
	}
	rev := []float64{1, 2, 3}
	if got := RankAgreement(a, rev); math.Abs(got+1) > 1e-12 {
		t.Fatalf("reversed agreement %v", got)
	}
}

func TestTopKIntersection(t *testing.T) {
	a := []float64{10, 9, 0.1, 0.2}
	b := []float64{8, 11, 0.3, 0.1}
	if got := TopKIntersection(a, b, 2); got != 1 {
		t.Fatalf("full overlap = %v", got)
	}
	c := []float64{0.1, 0.2, 10, 9}
	if got := TopKIntersection(a, c, 2); got != 0 {
		t.Fatalf("no overlap = %v", got)
	}
	if TopKIntersection(a, b, 0) != 0 || TopKIntersection(a, []float64{1}, 2) != 0 {
		t.Fatal("degenerate inputs")
	}
	if got := TopKIntersection(a, b, 99); got != 1 {
		t.Fatalf("k overflow = %v", got)
	}
}

func TestSummarizeFidelity(t *testing.T) {
	attrs := []xai.Attribution{
		{Phi: []float64{1}, Base: 0, Value: 1},   // error 0
		{Phi: []float64{1}, Base: 0, Value: 1.5}, // error 0.5
	}
	s := SummarizeFidelity(attrs)
	if s.N != 2 || math.Abs(s.MeanAdditivityErr-0.25) > 1e-12 || s.MaxAdditivityErr != 0.5 {
		t.Fatalf("summary %+v", s)
	}
	if z := SummarizeFidelity(nil); z.N != 0 {
		t.Fatal("empty summary")
	}
}
