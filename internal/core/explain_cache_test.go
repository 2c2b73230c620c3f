package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"nfvxai/internal/xai"
	"nfvxai/internal/xai/xcache"

	// Register every explanation method so the parity sweep below covers
	// the full seeded-local set.
	_ "nfvxai/internal/xai/anchors"
	_ "nfvxai/internal/xai/counterfactual"
	_ "nfvxai/internal/xai/intgrad"
	_ "nfvxai/internal/xai/lime"
	_ "nfvxai/internal/xai/perm"
	_ "nfvxai/internal/xai/shap"
	_ "nfvxai/internal/xai/treeshap"
)

// TestCachedVsFreshParity pins the tentpole's correctness bar: for every
// seeded local method a model supports, the attribution served through
// the result cache — on the miss AND on the following hit — is
// bit-identical to a fresh uncached computation.
func TestCachedVsFreshParity(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []ModelKind{ModelForest, ModelMLP} {
		p := planePipeline(t, kind)
		p.ResultCache = xcache.New(xcache.Config{})
		x := p.Test.X[5]
		for _, m := range xai.Methods() {
			if m.Kind != xai.KindLocal || !m.Caps.Deterministic {
				continue
			}
			opts := xai.Options{Samples: 64}
			e, name, err := p.ExplainerFor(m.Name, opts)
			if errors.Is(err, xai.ErrUnsupportedModel) {
				continue
			}
			if err != nil {
				t.Fatalf("%v/%s: %v", kind, m.Name, err)
			}
			fresh, err := e.Explain(ctx, x)
			if err != nil {
				t.Fatalf("%v/%s fresh: %v", kind, m.Name, err)
			}
			missAttr, _, outcome, err := p.ExplainCached(ctx, name, opts, x, false)
			if err != nil {
				t.Fatalf("%v/%s miss: %v", kind, m.Name, err)
			}
			if outcome != xcache.OutcomeMiss {
				t.Fatalf("%v/%s first call outcome = %v, want miss", kind, m.Name, outcome)
			}
			hitAttr, _, outcome, err := p.ExplainCached(ctx, name, opts, x, false)
			if err != nil {
				t.Fatalf("%v/%s hit: %v", kind, m.Name, err)
			}
			if outcome != xcache.OutcomeHit {
				t.Fatalf("%v/%s second call outcome = %v, want hit", kind, m.Name, outcome)
			}
			for _, got := range []xai.Attribution{missAttr, hitAttr} {
				if len(got.Phi) != len(fresh.Phi) {
					t.Fatalf("%v/%s: phi length %d vs %d", kind, m.Name, len(got.Phi), len(fresh.Phi))
				}
				for j := range fresh.Phi {
					if got.Phi[j] != fresh.Phi[j] {
						t.Fatalf("%v/%s phi[%d] = %v want %v (not bit-identical)", kind, m.Name, j, got.Phi[j], fresh.Phi[j])
					}
				}
				if got.Base != fresh.Base || got.Value != fresh.Value {
					t.Fatalf("%v/%s base/value drift", kind, m.Name)
				}
			}
		}
	}
}

// TestNoCacheBypasses: the no_cache knob computes fresh and leaves no
// entry behind.
func TestNoCacheBypasses(t *testing.T) {
	p := planePipeline(t, ModelForest)
	p.ResultCache = xcache.New(xcache.Config{})
	x := p.Test.X[2]
	_, _, outcome, err := p.ExplainCached(context.Background(), "", xai.Options{}, x, true)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != xcache.OutcomeBypass {
		t.Fatalf("outcome = %v, want bypass", outcome)
	}
	if st := p.ResultCache.Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Fatalf("no_cache must not touch the cache: %+v", st)
	}
	// Without a cache attached, the same call is also a bypass.
	p2 := planePipeline(t, ModelForest)
	if _, _, outcome, err := p2.ExplainCached(context.Background(), "", xai.Options{}, x, false); err != nil || outcome != xcache.OutcomeBypass {
		t.Fatalf("cacheless pipeline: outcome %v err %v", outcome, err)
	}
}

// TestContentDigestStability: the digest is computed once, is stable, and
// agrees across a save/load round trip — the property tier-2 sharing
// rests on.
func TestContentDigestStability(t *testing.T) {
	p := planePipeline(t, ModelForest)
	if _, ok := p.DigestIfComputed(); ok {
		t.Fatal("digest must not exist before first use")
	}
	d1 := p.ContentDigest()
	if d1 == "" || d1 != p.ContentDigest() {
		t.Fatalf("digest unstable: %q vs %q", d1, p.ContentDigest())
	}
	if got, ok := p.DigestIfComputed(); !ok || got != d1 {
		t.Fatalf("DigestIfComputed = %q, %v", got, ok)
	}
	data, err := p.Save()
	if err != nil {
		t.Fatal(err)
	}
	q, err := LoadPipeline(data)
	if err != nil {
		t.Fatal(err)
	}
	if q.ContentDigest() != d1 {
		t.Fatalf("round-tripped digest %q != %q", q.ContentDigest(), d1)
	}
}

// TestExplainBatchWithSplitsHitsAndMisses: a batch re-submitting known
// instances only computes the new ones, and duplicate instances within
// one batch coalesce to a single computation.
func TestExplainBatchWithSplitsHitsAndMisses(t *testing.T) {
	p := planePipeline(t, ModelForest)
	p.ResultCache = xcache.New(xcache.Config{})
	ctx := context.Background()
	e, method, err := p.ExplainerFor("", xai.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{}, 4)

	// Seed the cache with instance 0.
	if _, _, _, err := p.ExplainCached(ctx, method, xai.Options{}, p.Test.X[0], false); err != nil {
		t.Fatal(err)
	}
	xs := [][]float64{p.Test.X[0], p.Test.X[1], p.Test.X[1], p.Test.X[2]}
	attrs, errs, st := p.ExplainBatchWith(ctx, e, method, xai.Options{}, xs, gate, false)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("errs[%d]: %v", i, err)
		}
	}
	if st.Hits != 1 {
		t.Fatalf("hits = %d, want 1 (instance 0 was pre-seeded)", st.Hits)
	}
	if st.Misses+st.Coalesced != 3 || st.Misses < 2 {
		t.Fatalf("misses %d coalesced %d; want 3 total with ≥2 computed", st.Misses, st.Coalesced)
	}
	// Duplicate rows must be identical results.
	if !reflect.DeepEqual(attrs[1].Phi, attrs[2].Phi) {
		t.Fatal("duplicate instances diverged")
	}
	// Underlying computes: instance 0 seeded (1) + at most 3 new.
	if got := p.ResultCache.Stats().Misses; got > 4 {
		t.Fatalf("computes = %d", got)
	}
	// A repeat of the whole batch is all hits, no gate traffic needed.
	_, _, st2 := p.ExplainBatchWith(ctx, e, method, xai.Options{}, xs, gate, false)
	if st2.Hits != len(xs) || st2.Misses != 0 {
		t.Fatalf("repeat batch: %+v", st2)
	}
	// no_cache bypasses wholesale.
	_, _, st3 := p.ExplainBatchWith(ctx, e, method, xai.Options{}, xs, gate, true)
	if st3.Bypassed != len(xs) {
		t.Fatalf("no_cache batch: %+v", st3)
	}
}

// TestConcurrentIdenticalExplains: 64 concurrent identical requests
// through the pipeline produce exactly one underlying computation.
func TestConcurrentIdenticalExplains(t *testing.T) {
	p := planePipeline(t, ModelForest)
	p.ResultCache = xcache.New(xcache.Config{})
	ctx := context.Background()
	x := p.Test.X[7]
	var wg sync.WaitGroup
	attrs := make([]xai.Attribution, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			attr, _, _, err := p.ExplainCached(ctx, "", xai.Options{}, x, false)
			if err != nil {
				t.Errorf("explain %d: %v", i, err)
			}
			attrs[i] = attr
		}(i)
	}
	wg.Wait()
	st := p.ResultCache.Stats()
	if st.Misses != 1 {
		t.Fatalf("computations = %d, want exactly 1 (misses count computes)", st.Misses)
	}
	if st.Hits+st.Coalesced != 63 {
		t.Fatalf("hits %d + coalesced %d != 63", st.Hits, st.Coalesced)
	}
	for i := 1; i < 64; i++ {
		if !reflect.DeepEqual(attrs[i].Phi, attrs[0].Phi) {
			t.Fatalf("request %d got a different attribution", i)
		}
	}
}

// TestExplainerForTypedErrorsWithCache: with a result cache attached,
// every request for an unbuildable (model, method) pair fails the same
// typed way, a repeat included; unknown methods stay ErrUnknownMethod and
// supported methods still build.
func TestExplainerForTypedErrorsWithCache(t *testing.T) {
	p := planePipeline(t, ModelForest)
	p.ResultCache = xcache.New(xcache.Config{})

	_, _, first := p.ExplainerFor("intgrad", xai.Options{})
	_, _, repeat := p.ExplainerFor("intgrad", xai.Options{})
	if !errors.Is(first, xai.ErrUnsupportedModel) || !errors.Is(repeat, xai.ErrUnsupportedModel) {
		t.Fatalf("intgrad on forest: %v, then %v", first, repeat)
	}
	if got, want := repeat.Error(), first.Error(); got != want {
		t.Fatalf("repeat error %q, first %q", got, want)
	}
	if _, _, err := p.ExplainerFor("not-a-method", xai.Options{}); !errors.Is(err, xai.ErrUnknownMethod) {
		t.Fatalf("unknown method: %v", err)
	}
	if _, _, err := p.ExplainerFor("treeshap", xai.Options{}); err != nil {
		t.Fatalf("treeshap: %v", err)
	}
}
