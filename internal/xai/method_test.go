package xai

import (
	"context"
	"errors"
	"testing"

	"nfvxai/internal/ml"
)

// constExplainer is a trivial local explainer for registry tests.
type constExplainer struct{ phi float64 }

func (c constExplainer) Explain(_ context.Context, x []float64) (Attribution, error) {
	phi := make([]float64, len(x))
	for j := range phi {
		phi[j] = c.phi
	}
	return Attribution{Phi: phi}, nil
}

// flatModel is a minimal predictor for compatibility checks.
type flatModel struct{}

func (flatModel) Predict([]float64) float64 { return 0 }

// registerTestMethods registers two throwaway methods once per test
// binary; individual tests share them.
func registerTestMethods(t *testing.T) {
	t.Helper()
	if _, ok := LookupMethod("test-local"); ok {
		return
	}
	Register(Method{
		Name:     "test-local",
		Kind:     KindLocal,
		Defaults: Options{Samples: 7},
		Build: func(tg Target, o Options) (Explainer, error) {
			return constExplainer{phi: float64(len(tg.Background))}, nil
		},
	})
	Register(Method{
		Name: "test-global",
		Kind: KindGlobal,
	})
	Register(Method{
		Name:       "test-picky",
		Kind:       KindLocal,
		Compatible: func(m ml.Predictor) bool { return false },
		Build: func(Target, Options) (Explainer, error) {
			return constExplainer{}, nil
		},
	})
}

func TestRegisterAndLookup(t *testing.T) {
	registerTestMethods(t)
	m, ok := LookupMethod("test-local")
	if !ok || m.Name != "test-local" || m.Kind != KindLocal {
		t.Fatalf("lookup: %+v ok=%v", m, ok)
	}
	if _, ok := LookupMethod("nope"); ok {
		t.Fatal("lookup of unregistered method succeeded")
	}
	// Methods() is sorted and contains the registrations.
	names := MethodNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("MethodNames unsorted: %v", names)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	registerTestMethods(t)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(Method{Name: "test-local", Kind: KindLocal})
}

func TestRegisterEmptyNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty-name Register did not panic")
		}
	}()
	Register(Method{})
}

func TestMethodsForFiltersIncompatible(t *testing.T) {
	registerTestMethods(t)
	var saw []string
	for _, m := range MethodsFor(flatModel{}) {
		saw = append(saw, m.Name)
	}
	has := func(name string) bool {
		for _, n := range saw {
			if n == name {
				return true
			}
		}
		return false
	}
	if !has("test-local") || !has("test-global") {
		t.Fatalf("compatible methods missing from %v", saw)
	}
	if has("test-picky") {
		t.Fatalf("incompatible method listed: %v", saw)
	}
}

func TestBuildExplainerErrors(t *testing.T) {
	registerTestMethods(t)
	tgt := Target{Model: flatModel{}, Background: [][]float64{{1}, {2}}}
	if _, _, err := BuildExplainer("nope", tgt, Options{}); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("unknown method: %v", err)
	}
	if _, _, err := BuildExplainer("test-global", tgt, Options{}); !errors.Is(err, ErrUnsupportedModel) {
		t.Fatalf("global method on local path: %v", err)
	}
	if _, _, err := BuildExplainer("test-picky", tgt, Options{}); !errors.Is(err, ErrUnsupportedModel) {
		t.Fatalf("incompatible model: %v", err)
	}
}

func TestBuildExplainerTruncatesBackground(t *testing.T) {
	registerTestMethods(t)
	bg := [][]float64{{1}, {2}, {3}, {4}}
	e, _, err := BuildExplainer("test-local", Target{Model: flatModel{}, Background: bg}, Options{BackgroundSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	// constExplainer encodes len(background) in its phi.
	a, err := e.Explain(context.Background(), []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if a.Phi[0] != 2 {
		t.Fatalf("background not truncated: phi %v", a.Phi)
	}
}

func TestOptionsKeyDistinguishesParams(t *testing.T) {
	a := Options{Samples: 128, Seed: 1}
	b := Options{Samples: 256, Seed: 1}
	if a.Key() == b.Key() {
		t.Fatal("different options share a key")
	}
	if a.Key() != (Options{Samples: 128, Seed: 1}).Key() {
		t.Fatal("equal options produce different keys")
	}
}

func TestCanceled(t *testing.T) {
	if err := Canceled(context.Background(), "m"); err != nil {
		t.Fatalf("live context: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Canceled(ctx, "m")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: %v", err)
	}
}

func TestExplainBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	xs := [][]float64{{1}, {2}, {3}}
	_, err := ExplainBatch(ctx, blockingExplainer{}, xs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: %v", err)
	}
}

// blockingExplainer honors ctx like the real explainers do.
type blockingExplainer struct{}

func (blockingExplainer) Explain(ctx context.Context, x []float64) (Attribution, error) {
	if err := ctx.Err(); err != nil {
		return Attribution{}, err
	}
	return Attribution{Phi: make([]float64, len(x))}, nil
}
