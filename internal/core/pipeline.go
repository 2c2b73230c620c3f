package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nfvxai/internal/dataset"
	"nfvxai/internal/ml"
	"nfvxai/internal/ml/metrics"
	"nfvxai/internal/xai"
	"nfvxai/internal/xai/anchors"
	"nfvxai/internal/xai/counterfactual"
	"nfvxai/internal/xai/perm"
	"nfvxai/internal/xai/shap"
	"nfvxai/internal/xai/xcache"
)

// Pipeline is the end-to-end explainable NFV analytics workflow: a trained
// predictor plus everything needed to explain it (background data, feature
// names, seeded explainers).
type Pipeline struct {
	Kind  ModelKind
	Model ml.Predictor
	Train *dataset.Dataset
	Test  *dataset.Dataset
	// Background is the reference sample for SHAP/LIME/counterfactuals.
	Background [][]float64
	// ShapSamples bounds KernelSHAP coalitions (default 1024). It is part
	// of the explainer-cache key, so changing it between calls takes
	// effect on the next Explainer/ExplainInstance call instead of being
	// silently ignored after the first build.
	ShapSamples int
	Seed        int64
	// DisableExplainerCache forces every explainer lookup to rebuild — the
	// pre-registry per-request behavior. Benchmarks use it to measure what
	// the cache saves; serving code must leave it false.
	DisableExplainerCache bool
	// PredCostNs overrides the measured per-prediction cost consulted by
	// PredictCostNs (nanoseconds per single-row prediction). Tests set it
	// to force deterministic budget-ladder decisions; 0 measures lazily.
	// Set before serving starts — it is read without synchronization.
	PredCostNs float64
	// ResultCache, when non-nil, memoizes attributions content-addressed
	// by (artifact digest, method, normalized options, instance) — see
	// explain_cache.go. Like the knobs above it is set before serving
	// (the registry attaches it under its own lock) and read without
	// synchronization afterwards.
	ResultCache *xcache.Cache

	// The measured prediction cost is a property of the frozen model, so
	// it is sampled once, on first demand.
	costOnce sync.Once
	costNs   float64

	// The content digest is a property of the frozen model too: sha256 of
	// the serialized artifact, computed once on first cache-aware explain.
	// digestDone is set (with release ordering) after digestOnce runs, so
	// DigestIfComputed can answer without forcing a serialization.
	digestOnce sync.Once
	digestDone atomic.Bool
	digest     string

	// Explainers are expensive to run but cheap to share: all the
	// repository's explainers are stateless across Explain calls, so one
	// instance per (method, params) serves concurrent requests. The cache
	// is a small LRU keyed by method name + canonical option fingerprint;
	// the default method's entry behaves exactly like the old single
	// cached explainer.
	explMu    sync.Mutex
	explCache map[string]*cachedExplainer
	explTick  int64

	// Global importance is a function of the frozen model and test set, so
	// it is computed once per (pipeline, n) and cached.
	impMu    sync.Mutex
	impN     int
	impShap  []float64
	impPerm  []float64
	impReady bool
}

// cachedExplainer is one LRU entry of the per-(method, params) cache.
type cachedExplainer struct {
	e      xai.Explainer
	method string
	tick   int64
}

// explainerCacheSize bounds how many built explainers a pipeline retains.
// Each entry is small (the heavy state — base-value caches — pays for
// itself only when reused), so a handful covers every method an operator
// flips between while comparing explanations.
const explainerCacheSize = 8

// ErrUnknownFeature reports a feature name that is not in the pipeline's
// schema (wrapped with the offending name).
var ErrUnknownFeature = errors.New("unknown feature")

// NewPipeline trains the model kind on ds (seeded 80/20 split) and
// prepares a background sample.
func NewPipeline(kind ModelKind, ds *dataset.Dataset, seed int64) (*Pipeline, error) {
	train, test := SplitDataset(ds, seed)
	model, err := TrainModel(kind, train, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 17))
	return &Pipeline{
		Kind:        kind,
		Model:       model,
		Train:       train,
		Test:        test,
		Background:  shap.SampleBackground(rng, train.X, 60),
		ShapSamples: 1024,
		Seed:        seed,
	}, nil
}

// EvaluateRegression reports test-set regression metrics.
func (p *Pipeline) EvaluateRegression() metrics.RegressionReport {
	pred := ml.PredictBatch(p.Model, p.Test.X)
	return metrics.EvalRegression(p.Kind.String(), pred, p.Test.Y)
}

// EvaluateClassification reports test-set classification metrics.
func (p *Pipeline) EvaluateClassification() metrics.ClassificationReport {
	prob := ml.PredictBatch(p.Model, p.Test.X)
	return metrics.EvalClassification(p.Kind.String(), prob, p.Test.Y)
}

// Explainer returns the default explainer for the pipeline's model and
// the method name chosen (DefaultMethod). The explainer is built lazily
// and cached, so serving paths do not pay setup per request.
func (p *Pipeline) Explainer() (xai.Explainer, string) {
	e, method, err := p.ExplainerFor("", xai.Options{})
	if err != nil {
		// The default method always builds for a registry-trained pipeline
		// (the background is non-empty and DefaultMethod only names
		// methods compatible with the zoo). A hand-assembled Pipeline with
		// no background can still get here; defer the failure to Explain
		// time — one erroring request — exactly like the pre-registry
		// constructors did, instead of crashing the process.
		return errExplainer{err: fmt.Errorf("core: default explainer for %v: %w", p.Kind, err)}, DefaultMethod(p.Model)
	}
	return e, method
}

// ExplainerFor returns a cached (or freshly built) explainer for the
// named registry method with the given options. An empty method selects
// the model's default (DefaultMethod). Options are normalized against
// the pipeline before keying the cache: a zero seed inherits p.Seed, and
// a zero sample budget inherits ShapSamples for the KernelSHAP path, so
// late ShapSamples changes produce a new cache entry rather than being
// dropped. Unknown methods and capability mismatches surface as
// xai.ErrUnknownMethod / xai.ErrUnsupportedModel.
func (p *Pipeline) ExplainerFor(method string, opts xai.Options) (xai.Explainer, string, error) {
	method, opts = p.NormalizeOptions(method, opts)
	if p.DisableExplainerCache {
		e, m, err := p.buildExplainer(method, opts)
		if err != nil {
			return nil, "", err
		}
		return e, m.Name, nil
	}
	key := method + "|" + opts.Key()
	p.explMu.Lock()
	defer p.explMu.Unlock()
	p.explTick++
	if p.explCache == nil {
		p.explCache = make(map[string]*cachedExplainer, explainerCacheSize)
	}
	if c, ok := p.explCache[key]; ok {
		c.tick = p.explTick
		return c.e, c.method, nil
	}
	e, m, err := p.buildExplainer(method, opts)
	if err != nil {
		return nil, "", err
	}
	if len(p.explCache) >= explainerCacheSize {
		// Evict the least recently used entry.
		var oldest string
		var oldestTick int64 = 1<<63 - 1
		for k, c := range p.explCache {
			if c.tick < oldestTick {
				oldest, oldestTick = k, c.tick
			}
		}
		delete(p.explCache, oldest)
	}
	p.explCache[key] = &cachedExplainer{e: e, method: m.Name, tick: p.explTick}
	return e, m.Name, nil
}

// NormalizeOptions resolves an explain request to its canonical
// (method, options) identity: an empty method selects the model's
// default, a zero seed inherits p.Seed, a zero sample budget inherits
// ShapSamples on the KernelSHAP path, and TopK — which shapes the
// caller's rendering, not the explainer — is normalized out. The result
// keys both the explainer LRU and the content-addressed result cache,
// so two requests normalize equal iff they compute bit-identical
// attributions. Idempotent.
func (p *Pipeline) NormalizeOptions(method string, opts xai.Options) (string, xai.Options) {
	if method == "" {
		method = DefaultMethod(p.Model)
	}
	if opts.Seed == 0 {
		opts.Seed = p.Seed
	}
	if opts.Samples <= 0 && method == "kernelshap" {
		opts.Samples = p.shapSamples()
	}
	opts.TopK = 0
	return method, opts
}

// buildExplainer constructs a new explainer through the method registry.
func (p *Pipeline) buildExplainer(method string, opts xai.Options) (xai.Explainer, xai.Method, error) {
	return xai.BuildExplainer(method, xai.Target{
		Model:      p.Model,
		Background: p.Background,
		Names:      p.Train.Names,
	}, opts)
}

// Methods lists the registered explanation methods applicable to the
// pipeline's model (local and global), sorted by name.
func (p *Pipeline) Methods() []xai.Method {
	return xai.MethodsFor(p.Model)
}

// DefaultOptions returns the options the pipeline actually uses for the
// method when a request supplies none: the registry defaults overlaid
// with the pipeline-level settings (seed; ShapSamples for KernelSHAP).
// The serving layer advertises these so GET .../explainers matches what
// an option-less explain request runs.
func (p *Pipeline) DefaultOptions(m xai.Method) xai.Options {
	o := m.Defaults
	if o.Seed == 0 {
		o.Seed = p.Seed
	}
	if m.Name == "kernelshap" {
		o.Samples = p.shapSamples()
	}
	return o
}

func (p *Pipeline) shapSamples() int {
	if p.ShapSamples > 0 {
		return p.ShapSamples
	}
	return 1024
}

// ShapSampleBudget is the KernelSHAP coalition budget an option-less
// explain request runs with — the reference point the serving layer's
// budget ladder reduces from.
func (p *Pipeline) ShapSampleBudget() int { return p.shapSamples() }

// PredictCostNs returns the amortized wall cost of one single-row model
// prediction in nanoseconds, measured once (lazily) through the batch
// path over the background sample. The budget-degradation ladder prices
// KernelSHAP coalitions with it. A zero return means unmeasurable (no
// rows to time); the ladder then assumes everything fits and leaves
// enforcement to the context deadline. The PredCostNs field overrides
// measurement entirely.
func (p *Pipeline) PredictCostNs() float64 {
	if p.PredCostNs > 0 {
		return p.PredCostNs
	}
	p.costOnce.Do(func() {
		rows := p.Background
		if len(rows) == 0 && p.Train != nil {
			n := len(p.Train.X)
			if n > 64 {
				n = 64
			}
			rows = p.Train.X[:n]
		}
		if len(rows) == 0 {
			return
		}
		preds := make([]float64, len(rows))
		ml.PredictBatchParallel(p.Model, rows, preds, 0) // warm up caches
		start := time.Now()
		iters := 0
		for time.Since(start) < 2*time.Millisecond && iters < 50 {
			ml.PredictBatchParallel(p.Model, rows, preds, 0)
			iters++
		}
		p.costNs = float64(time.Since(start).Nanoseconds()) / float64(iters*len(rows))
	})
	return p.costNs
}

// PredictBatch scores many instances through the model's batch-inference
// fast path (ml.BatchPredictor) when the model has one, falling back to a
// per-row Predict loop otherwise. The serving layer's batch predict
// endpoint rides on this.
func (p *Pipeline) PredictBatch(xs [][]float64) []float64 {
	return ml.PredictBatch(p.Model, xs)
}

// ExplainInstance attributes the model's prediction at x with the default
// explainer, through the result cache when one is attached.
func (p *Pipeline) ExplainInstance(ctx context.Context, x []float64) (xai.Attribution, string, error) {
	e, method := p.Explainer()
	attr, _, err := p.ExplainWith(ctx, e, method, xai.Options{}, x, false)
	return attr, method, err
}

// GlobalImportance aggregates |SHAP| over n test instances into a global
// profile, alongside permutation importance for cross-validation of the
// ranking. The model and test set are frozen after training, so the result
// is cached: repeated calls with the same n return the first computation.
func (p *Pipeline) GlobalImportance(ctx context.Context, n int) (shapImp, permImp []float64, err error) {
	return p.GlobalImportanceProgress(ctx, n, nil)
}

// GlobalImportanceProgress is GlobalImportance with a progress callback:
// onProgress (when non-nil) receives a completion fraction in [0, 1] as
// the computation advances — the hook the asynchronous jobs API reports
// through. A cache hit reports 1 immediately.
func (p *Pipeline) GlobalImportanceProgress(ctx context.Context, n int, onProgress func(float64)) (shapImp, permImp []float64, err error) {
	if n <= 0 || n > p.Test.Len() {
		n = p.Test.Len()
	}
	p.impMu.Lock()
	defer p.impMu.Unlock()
	if p.impReady && p.impN == n {
		if onProgress != nil {
			onProgress(1)
		}
		return p.impShap, p.impPerm, nil
	}
	shapImp, permImp, err = p.globalImportance(ctx, n, onProgress)
	if err != nil {
		return nil, nil, err
	}
	p.impN, p.impShap, p.impPerm, p.impReady = n, shapImp, permImp, true
	return shapImp, permImp, nil
}

// globalImportance explains the first n test rows through the batch
// fan-out path (xai.ExplainBatch over a worker pool) in chunks, so the
// per-row explanations ride the PR 2 batch fast path and progress /
// cancellation have a natural granularity. The chunk size doubles as a
// worker cap (ExplainBatch never runs more workers than rows), and impMu
// serializes concurrent importance computations on one pipeline, so a
// background importance job contends for at most chunk cores rather than
// a full GOMAXPROCS pool per caller. The |SHAP| phase is reported as the
// first 85% of the work, permutation importance as the rest.
func (p *Pipeline) globalImportance(ctx context.Context, n int, onProgress func(float64)) (shapImp, permImp []float64, err error) {
	e, _ := p.Explainer()
	const chunk = 8
	attrs := make([]xai.Attribution, 0, n)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		part, err := xai.ExplainBatch(ctx, e, p.Test.X[lo:hi])
		if err != nil {
			return nil, nil, fmt.Errorf("core: explaining instances %d..%d: %w", lo, hi-1, err)
		}
		attrs = append(attrs, part...)
		if onProgress != nil {
			onProgress(0.85 * float64(hi) / float64(n))
		}
	}
	shapImp = xai.MeanAbs(attrs)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	permImp, err = perm.Importance(ctx, p.Model, p.Test, perm.Config{Repeats: 3, Seed: p.Seed})
	if err != nil {
		return nil, nil, err
	}
	if onProgress != nil {
		onProgress(1)
	}
	return shapImp, permImp, nil
}

// WhatIf finds the smallest telemetry change that brings the model's
// prediction to the target — the operator's remediation query. Immutable
// names must exist in the schema: a silently dropped constraint would let
// the search "fix" a violation by changing the very feature the operator
// declared untouchable, so unknown names are an error (ErrUnknownFeature).
func (p *Pipeline) WhatIf(ctx context.Context, x []float64, target counterfactual.Target, immutable []string) (counterfactual.Counterfactual, error) {
	var immutableIdx []int
	for _, name := range immutable {
		j := p.Train.FeatureIndex(name)
		if j < 0 {
			return counterfactual.Counterfactual{}, fmt.Errorf("core: immutable %q: %w", name, ErrUnknownFeature)
		}
		immutableIdx = append(immutableIdx, j)
	}
	return counterfactual.Search(ctx, p.Model, x, p.Background, counterfactual.Config{
		Target:    target,
		Immutable: immutableIdx,
		Seed:      p.Seed,
	})
}

// PlaybookRule finds an anchor rule for the model's verdict at x: a
// reusable "if these telemetry conditions hold, the model will (almost)
// always say the same thing" statement, rendered with feature names.
func (p *Pipeline) PlaybookRule(ctx context.Context, x []float64, threshold float64) (anchors.Anchor, string, error) {
	a, err := anchors.Explain(ctx, p.Model, x, p.Background, anchors.Config{
		Threshold: threshold,
		Seed:      p.Seed,
	})
	if err != nil {
		return anchors.Anchor{}, "", err
	}
	text := fmt.Sprintf("IF %s THEN verdict holds (precision %.2f, coverage %.2f)",
		a.Format(p.Train.Names), a.Precision, a.Coverage)
	return a, text, nil
}

// ImportanceTable renders an importance vector as a ranked table.
func ImportanceTable(names []string, imp []float64, topK int) string {
	type row struct {
		name string
		v    float64
	}
	rows := make([]row, len(imp))
	for i, v := range imp {
		name := fmt.Sprintf("f%d", i)
		if i < len(names) {
			name = names[i]
		}
		rows[i] = row{name, v}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
	if topK > 0 && topK < len(rows) {
		rows = rows[:topK]
	}
	var sb strings.Builder
	for i, r := range rows {
		fmt.Fprintf(&sb, "%2d. %-24s %.5f\n", i+1, r.name, r.v)
	}
	return sb.String()
}
