package main

// The traced run. It keeps the timed runs' stack and traffic, but splits
// the measured time into an untraced and a traced open-loop phase (their
// median latencies give the tracing overhead), records client and serve
// spans in memory during the traced phase, and then times the public
// entry point of each layer from here, on the workload's own inputs.
// Nothing inside the program is instrumented: the model layer is timed
// through a forwarding ml.BatchPredictor handed to xai.BuildExplainer,
// and tree explainers at the explainer boundary.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"nfvxai/internal/core"
	"nfvxai/internal/mat"
	"nfvxai/internal/ml"
	"nfvxai/internal/registry"
	"nfvxai/internal/sched"
	"nfvxai/internal/xai"
	"nfvxai/internal/xai/xcache"
)

// Probe sizes: enough repetitions that each per-layer figure is a median
// or mean over many calls, few enough that a traced run stays short.
const (
	probeRows     = 16    // instances for the per-call serve/core/xcache probes
	probeLoops    = 20000 // calls per sub-microsecond probe
	probeBatches  = 5     // batches for the fan-out probe
	probeKernel   = 6     // KernelSHAP explains for the shap/ml probe
	probeSolves   = 200   // ridge solves for the mat probe
	probeSwaps    = 5     // digests and swaps
	evalBlockRows = 16384 // shap's perturbation block bound (shap.evalBlockRows)
)

func hitRatio(before, after xcache.Stats) float64 {
	h := after.Hits - before.Hits
	n := h + after.Misses - before.Misses + after.Coalesced - before.Coalesced
	if n == 0 {
		return 0
	}
	return float64(h) / float64(n)
}

func tracedRun(w *workload, seed int64, conns int, total time.Duration, outDir string) (result, error) {
	s, err := setup(w, seed, conns)
	if err != nil {
		return result{}, err
	}
	defer s.st.close()
	plain, err := s.openPhase(total/2, 0)
	if err != nil {
		return result{}, err
	}
	s.traced = true
	s.st.spans.on.Store(true)
	traced, err := s.openPhase(total/2, 1)
	s.st.spans.on.Store(false)
	s.traced = false
	if err != nil {
		return result{}, err
	}
	spans := s.st.spans.take()
	checked, bad, err := s.verify()
	if err != nil {
		return result{}, err
	}
	res := result{
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed + bad,
		Correct:   bad == 0,
		Metrics:   map[string]metric{},
	}
	for _, ph := range []phase{plain, traced} {
		if ph.tallyErr != nil {
			fmt.Println("correctness:", ph.tallyErr)
			res.Correct = false
			res.Failed++
		}
	}
	m := res.Metrics
	p50Plain := median(append([]float64(nil), plain.latencies...))
	p50Traced := median(append([]float64(nil), traced.latencies...))
	m["trace.overhead_pct"] = metric{(p50Traced - p50Plain) / p50Plain * 100, "%"}
	late := append(append([]float64(nil), plain.late...), traced.late...)
	m["loadgen.late_p99_ms"] = metric{percentile(late, 99), "ms"}
	st := sumStats(plain, traced)
	m["xcache.hit_ratio"] = metric{hitRatio(xcache.Stats{}, st), "ratio"}
	m["xcache.evictions"] = metric{float64(st.Evicted), "count"}
	m["xcache.coalesced"] = metric{float64(st.Coalesced), "count"}
	m["serve.resp_bytes"] = metric{float64(s.bytes.Load()) / float64(s.replies.Load()), "bytes"}

	if err := s.probeLayers(m); err != nil {
		if errors.Is(err, errIncorrect) {
			fmt.Println("correctness:", err)
			res.Correct = false
			res.Failed++
		} else {
			return result{}, err
		}
	}

	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-24s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Printf("open loop p50: untraced %.4f ms, traced %.4f ms; oracle checked %d replies, %d mismatched\n", p50Plain, p50Traced, checked, bad)
	printSpanSummary(spans)
	solveMs := m["mat.solve_us"].Value * m["mat.solves_per_explain"].Value / 1e3
	fmt.Printf("kernelshap breakdown (web/mlp/util, 1024 coalitions): explain %.3f ms = model %.3f ms (ml.share %.4f, %.0f rows at %.1f ns/row) + ridge solve %.4f ms (%g x %.1f us) + shap self %.3f ms\n",
		m["shap.explain_ms"].Value, m["shap.explain_ms"].Value*m["ml.share"].Value, m["ml.share"].Value,
		m["ml.rows_per_explain"].Value, m["ml.ns_per_row"].Value, solveMs,
		m["mat.solves_per_explain"].Value, m["mat.solve_us"].Value, m["shap.self_ms"].Value)
	if outDir != "" {
		if err := writeSpans(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed)), spans); err != nil {
			return result{}, err
		}
	}
	return res, nil
}

// sumStats adds up the cache counter deltas of the phases.
func sumStats(phs ...phase) xcache.Stats {
	var t xcache.Stats
	for _, ph := range phs {
		t.Hits += ph.after.Hits - ph.before.Hits
		t.Misses += ph.after.Misses - ph.before.Misses
		t.Coalesced += ph.after.Coalesced - ph.before.Coalesced
		t.Evicted += ph.after.Evicted - ph.before.Evicted
	}
	return t
}

// printSpanSummary reports the traced phase's client round trip against
// the serve handler time, matched by request id.
func printSpanSummary(spans []span) {
	byID := map[string]span{}
	for _, sp := range spans {
		if sp.Layer == "serve" {
			byID[sp.ID] = sp
		}
	}
	var client, handler []float64
	for _, sp := range spans {
		if sv, ok := byID[sp.ID]; ok && sp.Layer == "client" {
			client = append(client, float64(sp.End-sp.Start)/1e3)
			handler = append(handler, float64(sv.End-sv.Start)/1e3)
		}
	}
	if len(client) == 0 {
		return
	}
	fmt.Printf("spans: %d traced requests, client round trip p50 %.1f us, serve handler p50 %.1f us\n",
		len(client), median(client), median(handler))
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// streamRows returns up to n distinct rows from the workload's own stream.
func (s *session) streamRows(n int) []int {
	seen := map[int]bool{}
	var rows []int
	for tries := 0; len(rows) < n && tries < 100*n; tries++ {
		for _, r := range s.nextRequest().rows {
			if !seen[r] && len(rows) < n {
				seen[r] = true
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// pipelineOf returns the workload's reference pipeline when it serves the
// given model kind, and otherwise trains one on the same data (web/util,
// trainHours, seed 1) for the probes of that kind's layers.
func (s *session) pipelineOf(model string) (*core.Pipeline, error) {
	if s.w.model == model {
		return s.refs[0], nil
	}
	return registry.New().BuildPipeline(registry.Spec{Scenario: "web", Model: model, Target: "util", Hours: trainHours, Seed: 1})
}

// probeLayers times each layer's public entry point and fills m.
func (s *session) probeLayers(m map[string]metric) error {
	ctx := context.Background()
	served, err := s.st.reg.Lookup(s.st.name)
	if err != nil {
		return err
	}
	method, opts := served.NormalizeOptions(s.plan.method, xai.Options{})
	rows := s.streamRows(probeRows)
	xs := make([][]float64, len(rows))
	for i, r := range rows {
		xs[i] = s.plan.pool[r]
	}

	// serve: HTTP round trip of a cache hit minus the in-process
	// ExplainWith of the same hit.
	e, _, err := served.ExplainerFor(method, opts)
	if err != nil {
		return err
	}
	var httpUs, inUs []float64
	for _, x := range xs {
		body := mustJSON(explainBody{Features: x, Method: s.plan.method})
		if _, err := s.st.post(body, false, ""); err != nil { // make sure it is cached
			return err
		}
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			r, err := s.st.post(body, false, "")
			if err != nil {
				return err
			}
			httpUs = append(httpUs, us(time.Since(t0)))
			if r.cache != "hit" {
				return fmt.Errorf("serve probe: X-Cache %q, want hit", r.cache)
			}
			t0 = time.Now()
			_, out, err := served.ExplainWith(ctx, e, method, opts, x, false)
			if err != nil {
				return fmt.Errorf("serve probe: %w", err)
			}
			if out != xcache.OutcomeHit {
				return fmt.Errorf("serve probe: in-process outcome %v, want hit", out)
			}
			inUs = append(inUs, us(time.Since(t0)))
		}
	}
	m["serve.overhead_us"] = metric{median(httpUs) - median(inUs), "us"}

	// registry, core and xcache entry points on the serving path.
	t0 := time.Now()
	for i := 0; i < probeLoops; i++ {
		if _, err := s.st.reg.Lookup(s.st.name); err != nil {
			return err
		}
	}
	m["registry.lookup_us"] = metric{us(time.Since(t0)) / probeLoops, "us"}
	t0 = time.Now()
	for i := 0; i < probeLoops; i++ {
		if _, _, err := served.ExplainerFor(method, opts); err != nil {
			return err
		}
	}
	m["core.explainer_for_us"] = metric{us(time.Since(t0)) / probeLoops, "us"}
	// The probe rows were all just served, but a small cache (batch-churn)
	// may already have evicted some; time hits on the ones still there.
	var keys []xcache.Key
	for _, x := range xs {
		k := xcache.Key{Digest: served.ContentDigest(), Method: method, Opts: opts.Key(), Instance: xcache.InstanceHash(x)}
		if _, ok := served.ResultCache.Get(k); ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return errors.New("xcache probe: no probe row left in the cache")
	}
	t0 = time.Now()
	for i := 0; i < probeLoops; i++ {
		if _, ok := served.ResultCache.Get(keys[i%len(keys)]); !ok {
			return errors.New("xcache probe: cached key vanished")
		}
	}
	m["xcache.get_us"] = metric{us(time.Since(t0)) / probeLoops, "us"}

	rf, err := s.pipelineOf("rf")
	if err != nil {
		return err
	}
	if err := probeTrees(m, rf, s.batchInputs(xs)); err != nil {
		return err
	}
	mlp, err := s.pipelineOf("mlp")
	if err != nil {
		return err
	}
	if err := probeKernelSHAP(m, mlp, xs); err != nil {
		return err
	}

	// core digest and registry swap, last: a swap retires the served
	// artifact's cache entries.
	data, err := served.Save()
	if err != nil {
		return err
	}
	var digestMs, swapMs []float64
	for i := 0; i < probeSwaps; i++ {
		q, err := core.LoadPipeline(data)
		if err != nil {
			return err
		}
		t0 := time.Now()
		q.ContentDigest()
		digestMs = append(digestMs, ms(time.Since(t0)))
		t0 = time.Now()
		if _, err := s.st.reg.Swap(s.st.name, q, time.Now()); err != nil {
			return err
		}
		swapMs = append(swapMs, ms(time.Since(t0)))
	}
	m["core.digest_ms"] = metric{median(digestMs), "ms"}
	m["registry.swap_ms"] = metric{median(swapMs), "ms"}
	return nil
}

// batchInputs is probeBatches batches of batchSize instances from the
// workload's stream: its own batches on batch-churn, else its rows.
func (s *session) batchInputs(rows [][]float64) [][][]float64 {
	out := make([][][]float64, probeBatches)
	for b := range out {
		if s.plan.batch {
			for _, r := range s.nextRequest().rows {
				out[b] = append(out[b], s.plan.pool[r])
			}
			continue
		}
		for k := 0; k < batchSize; k++ {
			out[b] = append(out[b], rows[(b*batchSize+k)%len(rows)])
		}
	}
	return out
}

// timedExplainer times each Explain at the explainer boundary.
type timedExplainer struct {
	xai.Explainer
	ns atomic.Int64
}

func (t *timedExplainer) Explain(ctx context.Context, x []float64) (xai.Attribution, error) {
	t0 := time.Now()
	a, err := t.Explainer.Explain(ctx, x)
	t.ns.Add(int64(time.Since(t0)))
	return a, err
}

// probeTrees times treeshap per missed instance (serially) and the
// cache-aware batch fan-out, ExplainBatchWith, on a fresh decoded copy of
// the rf artifact with an empty private cache per batch, so every
// instance misses.
func probeTrees(m map[string]metric, rf *core.Pipeline, batches [][][]float64) error {
	ctx := context.Background()
	e, method, err := rf.ExplainerFor("", xai.Options{})
	if err != nil {
		return err
	}
	var n int
	t0 := time.Now()
	for _, xs := range batches {
		for _, x := range xs {
			if _, err := e.Explain(ctx, x); err != nil {
				return err
			}
			n++
		}
	}
	m["treeshap.explain_ms"] = metric{ms(time.Since(t0)) / float64(n), "ms"}

	data, err := rf.Save()
	if err != nil {
		return err
	}
	q, err := core.LoadPipeline(data)
	if err != nil {
		return err
	}
	q.ContentDigest()
	qe, _, err := q.ExplainerFor(method, xai.Options{})
	if err != nil {
		return err
	}
	te := &timedExplainer{Explainer: qe}
	width := runtime.GOMAXPROCS(0) // the API server's default batch gate
	gate := make(chan struct{}, width)
	var walls []float64
	var wallNs int64
	for _, xs := range batches {
		q.ResultCache = xcache.New(xcache.Config{})
		t0 := time.Now()
		_, errs, _ := q.ExplainBatchWith(ctx, te, method, xai.Options{}, xs, gate, false)
		wall := time.Since(t0)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		walls = append(walls, ms(wall))
		wallNs += int64(wall)
	}
	m["xai.batch_ms"] = metric{median(walls), "ms"}
	m["xai.fanout_efficiency"] = metric{float64(te.ns.Load()) / float64(wallNs*int64(width)), "ratio"}
	return nil
}

// timedModel is a forwarding ml.BatchPredictor that times every model
// evaluation and counts the rows. It calls exactly what the explainer
// would have called on the wrapped model, so outputs are bit-identical.
type timedModel struct {
	inner    ml.Predictor
	ns, rows atomic.Int64
}

func (t *timedModel) Predict(x []float64) float64 {
	t0 := time.Now()
	v := t.inner.Predict(x)
	t.ns.Add(int64(time.Since(t0)))
	t.rows.Add(1)
	return v
}

func (t *timedModel) PredictBatch(X [][]float64, out []float64) {
	t0 := time.Now()
	ml.PredictBatchParallel(t.inner, X, out, 0)
	t.ns.Add(int64(time.Since(t0)))
	t.rows.Add(int64(len(X)))
}

// probeKernelSHAP times KernelSHAP on the MLP with the model behind a
// timedModel, checks that the decorated explainer reproduces the
// pipeline's own attribution bit for bit, and times the explain's ridge
// solve shape and its perturbation-matrix evaluation at one and at the
// default number of sched workers.
func probeKernelSHAP(m map[string]metric, p *core.Pipeline, xs [][]float64) error {
	ctx := context.Background()
	method, opts := p.NormalizeOptions("kernelshap", xai.Options{})
	tm := &timedModel{inner: p.Model}
	e, _, err := xai.BuildExplainer(method, xai.Target{Model: tm, Background: p.Background, Names: p.Train.Names}, opts)
	if err != nil {
		return err
	}
	got, err := e.Explain(ctx, xs[0]) // also computes the base value, once per explainer
	if err != nil {
		return err
	}
	want, _, _, err := p.ExplainCached(ctx, method, xai.Options{}, xs[0], true)
	if err != nil {
		return err
	}
	if !sameAttribution(got, want) {
		return fmt.Errorf("%w: decorated model changed the KernelSHAP attribution", errIncorrect)
	}
	var explainNs, modelNs, rows int64
	rowsPer := int64(-1)
	for i := 0; i < probeKernel; i++ {
		x := xs[(i+1)%len(xs)]
		ns0, rows0 := tm.ns.Load(), tm.rows.Load()
		t0 := time.Now()
		if _, err := e.Explain(ctx, x); err != nil {
			return err
		}
		explainNs += int64(time.Since(t0))
		dn, dr := tm.ns.Load()-ns0, tm.rows.Load()-rows0
		modelNs += dn
		rows += dr
		if rowsPer >= 0 && dr != rowsPer {
			return fmt.Errorf("kernelshap probe: %d model rows in one explain, %d in another", rowsPer, dr)
		}
		rowsPer = dr
	}
	explainMs := float64(explainNs) / 1e6 / probeKernel
	m["shap.explain_ms"] = metric{explainMs, "ms"}
	m["ml.rows_per_explain"] = metric{float64(rowsPer), "count"}
	m["ml.ns_per_row"] = metric{float64(modelNs) / float64(rows), "ns"}
	m["ml.share"] = metric{float64(modelNs) / float64(explainNs), "ratio"}

	// mat: one weighted ridge solve of the explain's own system, samples ×
	// (features−1). The classic (no-deadline) KernelSHAP path solves once.
	d := len(xs[0])
	solveUs := probeSolve(opts.Samples, d-1)
	m["mat.solve_us"] = metric{solveUs, "us"}
	m["mat.solves_per_explain"] = metric{1, "count"}
	m["shap.self_ms"] = metric{explainMs - float64(modelNs)/1e6/probeKernel - solveUs/1e3, "ms"}

	// sched: evaluate one explain's perturbation matrix serially and on
	// the default pool. Configure(1) strands the default pool's workers,
	// which is why only the traced run does this.
	m["sched.workers"] = metric{float64(sched.Default().Workers()), "count"}
	blocks := perturbationBlocks(p.Background, xs[0], opts.Samples)
	parallel := timeEval(p.Model, blocks)
	sched.Configure(1, false)
	serial := timeEval(p.Model, blocks)
	sched.Configure(0, false)
	m["sched.speedup"] = metric{serial / parallel, "x"}
	return nil
}

func sameAttribution(a, b xai.Attribution) bool {
	if a.Value != b.Value || a.Base != b.Base || len(a.Phi) != len(b.Phi) {
		return false
	}
	for i := range a.Phi {
		if a.Phi[i] != b.Phi[i] {
			return false
		}
	}
	return true
}

// probeSolve is the median time of SolveWeightedRidgeInto on a rows×cols
// KernelSHAP-shaped system (entries z_j − z_d ∈ {−1, 0, 1}, unit weights).
func probeSolve(rows, cols int) float64 {
	r := rand.New(rand.NewSource(seedProbe))
	a := mat.NewDense(rows, cols)
	b := make([]float64, rows)
	w := make([]float64, rows)
	for i := 0; i < rows; i++ {
		zd := float64(r.Intn(2))
		for j := 0; j < cols; j++ {
			a.Set(i, j, float64(r.Intn(2))-zd)
		}
		b[i] = r.NormFloat64()
		w[i] = 1
	}
	dst := make([]float64, cols)
	times := make([]float64, probeSolves)
	for i := range times {
		t0 := time.Now()
		if err := mat.SolveWeightedRidgeInto(a, b, w, 1e-9, dst); err != nil {
			return 0
		}
		times[i] = us(time.Since(t0))
	}
	return median(times)
}

// perturbationBlocks assembles the (coalition × background) rows of one
// KernelSHAP explain of x with random coalitions, split into the blocks
// shap evaluates with one batched model call each.
func perturbationBlocks(bg [][]float64, x []float64, coalitions int) [][][]float64 {
	r := rand.New(rand.NewSource(seedProbe))
	perBlock := evalBlockRows / len(bg) * len(bg)
	var blocks [][][]float64
	var cur [][]float64
	kept := make([]int, 0, len(x))
	for c := 0; c < coalitions; c++ {
		kept = kept[:0]
		for j := range x {
			if r.Intn(2) == 1 {
				kept = append(kept, j)
			}
		}
		for _, b := range bg {
			row := make([]float64, len(x))
			mat.HybridRow(row, b, x, kept)
			cur = append(cur, row)
			if len(cur) == perBlock {
				blocks = append(blocks, cur)
				cur = nil
			}
		}
	}
	if len(cur) > 0 {
		blocks = append(blocks, cur)
	}
	return blocks
}

// timeEval is the median of three evaluations of all blocks, in ms.
func timeEval(model ml.Predictor, blocks [][][]float64) float64 {
	out := make([]float64, evalBlockRows)
	var times []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for _, b := range blocks {
			ml.PredictBatchParallel(model, b, out[:len(b)], 0)
		}
		times = append(times, ms(time.Since(t0)))
	}
	return median(times)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
