package core

// The cache-aware explain paths: every seeded local method is
// deterministic given (artifact digest, method, normalized options,
// instance), so attributions are memoized in the content-addressed
// result cache (internal/xai/xcache) when one is attached. Keys embed
// the artifact digest, never the model name — retrain/swap/import need
// no flush, a new artifact simply misses.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"nfvxai/internal/xai"
	"nfvxai/internal/xai/xcache"
)

// memDigestSeq disambiguates pipelines that cannot serialize: they get a
// process-unique pseudo-digest, which still enables in-process caching
// (the digest is stable for the pipeline's lifetime) but never collides
// across artifacts or survives into tier 2 meaningfully.
var memDigestSeq atomic.Uint64

// ContentDigest returns the pipeline's content digest — sha256 over the
// serialized artifact bytes, hex-encoded — computed once per pipeline.
// Two nodes that trained, imported or warm-started the same artifact
// agree on it (save/load round-trips are bit-identical), which is what
// lets a shared tier-2 cache serve one node's explanations from another.
func (p *Pipeline) ContentDigest() string {
	p.digestOnce.Do(func() {
		if data, err := p.Save(); err == nil {
			sum := sha256.Sum256(data)
			p.digest = hex.EncodeToString(sum[:])
		} else {
			p.digest = fmt.Sprintf("mem-%d", memDigestSeq.Add(1))
		}
		p.digestDone.Store(true)
	})
	return p.digest
}

// DigestIfComputed returns the content digest only if some explain has
// already forced it. Swap-time invalidation uses it: a pipeline that
// never served a cache-aware explain has no cache entries to drop, and
// must not pay a full serialization on its way out.
func (p *Pipeline) DigestIfComputed() (string, bool) {
	if !p.digestDone.Load() {
		return "", false
	}
	return p.digest, true
}

// cacheKeyFor builds the result-cache key for one normalized request,
// reporting false when the request is uncacheable: no cache attached,
// unknown method, or a method that is not a deterministic local
// attribution (global methods and unseeded samplers never enter).
func (p *Pipeline) cacheKeyFor(method string, opts xai.Options, x []float64) (xcache.Key, bool) {
	if p.ResultCache == nil {
		return xcache.Key{}, false
	}
	m, ok := xai.LookupMethod(method)
	if !ok || m.Kind != xai.KindLocal || !m.Caps.Deterministic {
		return xcache.Key{}, false
	}
	return xcache.Key{
		Digest:   p.ContentDigest(),
		Method:   method,
		Opts:     opts.Key(),
		Instance: xcache.InstanceHash(x),
	}, true
}

// ExplainWith attributes x with an already-resolved explainer e through
// the result cache. method/opts are normalized internally, so callers
// may pass exactly what they gave ExplainerFor; e must be the explainer
// ExplainerFor resolved for them. noCache forces a fresh computation
// without touching the cache (the serving layer's no_cache knob).
func (p *Pipeline) ExplainWith(ctx context.Context, e xai.Explainer, method string, opts xai.Options, x []float64, noCache bool) (xai.Attribution, xcache.Outcome, error) {
	method, opts = p.NormalizeOptions(method, opts)
	key, cacheable := p.cacheKeyFor(method, opts, x)
	if noCache || !cacheable {
		attr, err := e.Explain(ctx, x)
		return attr, xcache.OutcomeBypass, err
	}
	return p.ResultCache.Do(ctx, key, func(ctx context.Context) (xai.Attribution, error) {
		return e.Explain(ctx, x)
	})
}

// ExplainCached is the one-call cache-aware explain: resolve the
// explainer, then ExplainWith. The resolved method name is returned so
// option-less callers learn what ran.
func (p *Pipeline) ExplainCached(ctx context.Context, method string, opts xai.Options, x []float64, noCache bool) (xai.Attribution, string, xcache.Outcome, error) {
	e, m, err := p.ExplainerFor(method, opts)
	if err != nil {
		return xai.Attribution{}, "", xcache.OutcomeBypass, err
	}
	attr, outcome, err := p.ExplainWith(ctx, e, m, opts, x, noCache)
	return attr, m, outcome, err
}

// BatchCacheStats tallies how one batch was served.
type BatchCacheStats struct {
	Hits      int `json:"hits"`
	Misses    int `json:"misses"`
	Coalesced int `json:"coalesced"`
	Bypassed  int `json:"bypassed,omitempty"`
}

// ExplainBatchWith attributes a batch through the result cache: tier-1
// hits are filled synchronously without consuming worker-gate slots, and
// only the misses fan out through gate — each one via the single-flight
// path, so identical instances (within the batch or across concurrent
// batches) compute once. Result/error slices are in input order, exactly
// like xai.ExplainBatchGatedErrs, which uncacheable batches fall back to.
func (p *Pipeline) ExplainBatchWith(ctx context.Context, e xai.Explainer, method string, opts xai.Options, xs [][]float64, gate chan struct{}, noCache bool) ([]xai.Attribution, []error, BatchCacheStats) {
	method, opts = p.NormalizeOptions(method, opts)
	var st BatchCacheStats
	if len(xs) == 0 {
		return nil, nil, st
	}
	_, cacheable := p.cacheKeyFor(method, opts, xs[0])
	if noCache || !cacheable {
		attrs, errs := xai.ExplainBatchGatedErrs(ctx, e, xs, gate)
		st.Bypassed = len(xs)
		return attrs, errs, st
	}
	attrs := make([]xai.Attribution, len(xs))
	errs := make([]error, len(xs))
	keys := make([]xcache.Key, len(xs))
	miss := make([]int, 0, len(xs))
	for i, x := range xs {
		keys[i], _ = p.cacheKeyFor(method, opts, x)
		if a, ok := p.ResultCache.Get(keys[i]); ok {
			attrs[i] = a
			st.Hits++
		} else {
			miss = append(miss, i)
		}
	}
	if len(miss) == 0 {
		return attrs, errs, st
	}
	outcomes := make([]xcache.Outcome, len(xs))
	xai.GatedEach(ctx, gate, miss, errs, func(i int) {
		attrs[i], outcomes[i], errs[i] = p.ResultCache.Do(ctx, keys[i], func(ctx context.Context) (xai.Attribution, error) {
			return e.Explain(ctx, xs[i])
		})
	})
	for _, i := range miss {
		switch outcomes[i] {
		case xcache.OutcomeHit, xcache.OutcomeCoalesced:
			st.Coalesced++
		default:
			st.Misses++
		}
	}
	return attrs, errs, st
}
