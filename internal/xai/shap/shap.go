// Package shap implements SHAP (SHapley Additive exPlanations) for
// arbitrary black-box models: the KernelSHAP weighted-least-squares
// estimator of Lundberg & Lee (NIPS 2017) plus an exact exponential-time
// Shapley computation used as a correctness oracle on small feature
// counts. Feature removal is interventional: absent features are replaced
// by values drawn from a background dataset, and the value of a coalition
// is the mean model output over the background replacements.
package shap

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"nfvxai/internal/mat"
	"nfvxai/internal/ml"
	"nfvxai/internal/xai"
)

// init registers KernelSHAP in the xai method registry as the
// model-agnostic local attribution method. It needs a background sample
// and is deterministic for a fixed (options, background) pair.
func init() {
	xai.Register(xai.Method{
		Name: "kernelshap",
		Kind: xai.KindLocal,
		Caps: xai.Capabilities{
			NeedsBackground: true,
			SupportsBatch:   true,
			Deterministic:   true,
			Additive:        true,
		},
		Defaults: xai.Options{Samples: 2048, Ridge: 1e-9},
		Build: func(t xai.Target, o xai.Options) (xai.Explainer, error) {
			return &Kernel{
				Model:      t.Model,
				Background: t.Background,
				NumSamples: o.Samples,
				Ridge:      o.Ridge,
				Seed:       o.Seed,
				Names:      t.Names,
			}, nil
		},
	})
}

// Kernel is a KernelSHAP explainer. Background must be non-empty; its
// rows define the reference distribution for absent features and the base
// value (mean prediction over background).
//
// Explain assembles the full (coalition × background) perturbation matrix
// and evaluates it through the model's batch path (ml.PredictBatchParallel),
// so models implementing ml.BatchPredictor — trees, forests, GBTs, MLPs,
// linear models — are scored over contiguous buffers instead of one
// pointer-chased Predict call per perturbed row. Plain Predictors fall
// back to a worker-chunked Predict loop and produce identical results.
//
// Two shortcuts leave every value's bits as they were. A sampled
// coalition that repeats an earlier draw is evaluated once (see
// firstDraws). And a standardizing wrapper's inner model is evaluated
// directly, on a background standardized once per Kernel and an instance
// standardized once per call (see standardized.go).
type Kernel struct {
	Model ml.Predictor
	// Background rows are reference inputs; 50–200 rows is typical.
	Background [][]float64
	// NumSamples bounds the number of coalitions evaluated (default 2048).
	// When 2^d−2 fits in the budget, all coalitions are enumerated and the
	// estimator is exact (for the given background).
	NumSamples int
	// Ridge regularizes the WLS solve (default 1e-9, numerical only).
	Ridge float64
	// Seed drives coalition sampling.
	Seed int64
	// Names are optional feature names copied into attributions.
	Names []string
	// RowAtATime disables the batched fast path and the base-value cache,
	// reproducing the seed's one-Predict-per-perturbation behavior. It
	// exists as the benchmark baseline; serving code leaves it false.
	RowAtATime bool
	// BlockSamples sets the progressive path's per-block coalition count
	// (default 128). Smaller blocks react to deadlines faster at the cost
	// of more WLS solves.
	BlockSamples int
	// ConvergeTol is the progressive path's relative convergence tolerance
	// (default 0.02): sampling stops early once every per-feature 95% CI
	// half-width falls below ConvergeTol × the attribution scale. Negative
	// disables early convergence (tests use this for a fixed block count).
	ConvergeTol float64

	// The base value E[f(background)] depends only on the frozen model and
	// background, so it is computed once and shared across Explain calls —
	// xai.ExplainBatch invokes Explain from many goroutines, hence the Once.
	// Mutating Model or Background after the first Explain invalidates it;
	// build a fresh Kernel instead.
	baseOnce sync.Once
	baseVal  float64

	// The evaluator is chosen once, since what the frozen model is does
	// not change: the masked tree-ensemble evaluator (treefast.go) when
	// the model decomposes into additive trees, else the generic one,
	// on the inner model of a standardizing wrapper (standardized.go)
	// when it reproduces the wrapper.
	evalOnce sync.Once
	fast     *maskedEvaluator
	std      *standardizedModel
}

// Explain computes the SHAP attribution of the model at x. Cancellation
// is honored between coalition-evaluation blocks.
func (k *Kernel) Explain(ctx context.Context, x []float64) (xai.Attribution, error) {
	d := len(x)
	if d == 0 {
		return xai.Attribution{}, errors.New("shap: empty input")
	}
	if len(k.Background) == 0 {
		return xai.Attribution{}, errors.New("shap: empty background")
	}
	for i, b := range k.Background {
		if len(b) != d {
			return xai.Attribution{}, fmt.Errorf("shap: background row %d has %d features, want %d", i, len(b), d)
		}
	}
	base := k.baseValue()
	fx := k.Model.Predict(x)

	if d == 1 {
		// Single feature: the entire gap is its contribution.
		return xai.Attribution{Names: k.Names, Phi: []float64{fx - base}, Base: base, Value: fx}, nil
	}

	budget := k.NumSamples
	if budget <= 0 {
		budget = 2048
	}
	// A context deadline selects the progressive anytime estimator: sample
	// in blocks, stop at convergence or at the deadline, and return the
	// partial estimate instead of a timeout error. Without a deadline the
	// classic single-solve path below runs bit-identically to before.
	if _, hasDeadline := ctx.Deadline(); hasDeadline && !k.RowAtATime {
		return k.explainProgressive(ctx, x, base, fx, budget)
	}
	// Pooled scratch: masks and vals alias sc until release, which is
	// safe because solvePhi below copies nothing out of them.
	sc := getScratch()
	defer sc.release()
	var masks [][]bool
	var weights []float64
	var first []int
	if total := (1 << uint(d)) - 2; d <= 20 && total <= budget {
		masks, weights = enumerateCoalitions(d, sc)
	} else {
		sc.rng.Seed(k.Seed + 0x9E3779B9)
		masks, weights, first = sampleCoalitions(d, budget, sc)
	}

	// Evaluate the value function for every coalition.
	vals := sc.valsFor(len(masks))
	if k.RowAtATime {
		for i, m := range masks {
			if err := xai.Canceled(ctx, "shap"); err != nil {
				return xai.Attribution{}, err
			}
			vals[i] = k.coalitionValue(x, m)
		}
	} else if err := k.evalCoalitions(ctx, x, masks, first, vals, sc); err != nil {
		return xai.Attribution{}, err
	}

	phi, err := solvePhi(masks, weights, vals, base, fx, k.ridge(), sc)
	if err != nil {
		return xai.Attribution{}, err
	}
	return xai.Attribution{Names: k.Names, Phi: phi, Base: base, Value: fx}, nil
}

func (k *Kernel) ridge() float64 {
	if k.Ridge > 0 {
		return k.Ridge
	}
	return 1e-9
}

// solvePhi solves the constrained WLS for one set of evaluated coalitions:
// phi[d-1] is eliminated via the efficiency constraint Σ phi = fx − base
// and recovered from the remainder, so every solution — including the
// per-block solutions of the progressive estimator — sums exactly to
// fx − base. The design matrix, target and solution come from sc; only
// phi (the returned attribution) is allocated.
func solvePhi(masks [][]bool, weights, vals []float64, base, fx, ridge float64, sc *scratch) ([]float64, error) {
	d := len(masks[0])
	a := sc.a.Reshape(len(masks), d-1)
	if cap(sc.b) < len(masks) {
		sc.b = make([]float64, len(masks))
	}
	b := sc.b[:len(masks)]
	for i, m := range masks {
		zd := 0.0
		if m[d-1] {
			zd = 1
		}
		row := a.Row(i)
		for j := 0; j < d-1; j++ {
			zj := 0.0
			if m[j] {
				zj = 1
			}
			row[j] = zj - zd
		}
		b[i] = vals[i] - base - zd*(fx-base)
	}
	if cap(sc.sol) < d-1 {
		sc.sol = make([]float64, d-1)
	}
	sol := sc.sol[:d-1]
	if err := mat.SolveWeightedRidgeInto(a, b, weights, ridge, sol); err != nil {
		return nil, fmt.Errorf("shap: WLS solve: %w", err)
	}
	//lint:allow poolalloc phi escapes into the returned Attribution
	phi := make([]float64, d)
	copy(phi, sol)
	var sum float64
	for _, p := range sol {
		sum += p
	}
	phi[d-1] = (fx - base) - sum
	return phi, nil
}

func (k *Kernel) baseValue() float64 {
	if k.RowAtATime {
		return k.computeBase()
	}
	k.baseOnce.Do(func() { k.baseVal = k.computeBase() })
	return k.baseVal
}

func (k *Kernel) computeBase() float64 {
	var s float64
	if k.RowAtATime {
		for _, b := range k.Background {
			s += k.Model.Predict(b)
		}
	} else {
		//lint:allow poolalloc base-value scratch, once per explainer lifetime
		preds := make([]float64, len(k.Background))
		ml.PredictBatchParallel(k.Model, k.Background, preds, 0)
		for _, p := range preds {
			s += p
		}
	}
	return s / float64(len(k.Background))
}

// coalitionValue returns E_b[f(z)] where z takes x on mask-true features
// and the background row elsewhere — the row-at-a-time reference
// implementation kept as the benchmark/parity baseline.
func (k *Kernel) coalitionValue(x []float64, mask []bool) float64 {
	//lint:allow poolalloc single-coalition probe, not on the batched hot path
	z := make([]float64, len(x))
	var s float64
	for _, bg := range k.Background {
		for j := range z {
			if mask[j] {
				z[j] = x[j]
			} else {
				z[j] = bg[j]
			}
		}
		s += k.Model.Predict(z)
	}
	return s / float64(len(k.Background))
}

// evalBlockRows bounds the perturbation-matrix block: at the default
// budget (1024 coalitions × 60 background rows) blocks keep the backing
// buffer under ~2 MB while still amortizing each PredictBatch dispatch
// over thousands of contiguous rows.
const evalBlockRows = 16384

// evalCoalitions fills vals[i] with the coalition value of masks[i]: the
// mean model output over the background replacements. first, when not
// nil, maps each draw to the first draw of the same mask (firstDraws):
// only first occurrences reach the evaluator, and each repeat copies the
// value of its first occurrence, which is the value it would have
// computed, since a coalition's value depends on its mask alone.
func (k *Kernel) evalCoalitions(ctx context.Context, x []float64, masks [][]bool, first []int, vals []float64, sc *scratch) error {
	if first == nil {
		return k.evalDistinct(ctx, x, masks, vals, sc)
	}
	uniq := sc.uniq[:0]
	for i, m := range masks {
		if first[i] == i {
			uniq = append(uniq, m)
		}
	}
	sc.uniq = uniq
	if cap(sc.uvals) < len(uniq) {
		sc.uvals = make([]float64, len(uniq))
	}
	uvals := sc.uvals[:len(uniq)]
	if err := k.evalDistinct(ctx, x, uniq, uvals, sc); err != nil {
		return err
	}
	u := 0
	for i, f := range first {
		if f == i {
			vals[i] = uvals[u]
			u++
		} else {
			vals[i] = vals[f]
		}
	}
	return nil
}

// evalDistinct fills vals[i] with the coalition value of masks[i].
// Additive tree ensembles take the masked divergence-tree path
// (treefast.go); all other models get the (coalition × background)
// perturbation rows of a block assembled in one flat backing buffer and
// evaluated with a single batched model call. The generic reduction sums
// each coalition's background predictions in row order, so it is
// bit-identical to coalitionValue (but for a NaN value's payload: which
// of two NaNs a sum keeps depends on how its add is compiled); the masked
// path agrees to within float reassociation. ctx is checked once per
// block / background row.
func (k *Kernel) evalDistinct(ctx context.Context, x []float64, masks [][]bool, vals []float64, sc *scratch) error {
	k.evalOnce.Do(func() {
		if k.fast = newMaskedEvaluator(k); k.fast == nil {
			k.std = newStandardizedModel(k)
		}
	})
	if k.fast != nil {
		return k.fast.evalCoalitions(ctx, x, k.Background, masks, vals, sc)
	}
	model, background := k.Model, k.Background
	if k.std != nil {
		// Hybrids of standardized rows are the standardized hybrids, bit
		// for bit, so x is standardized once and the rows go to the inner
		// model as they are.
		if cap(sc.xs) < len(x) {
			sc.xs = make([]float64, len(x))
		}
		xs := sc.xs[:len(x)]
		k.std.transform(xs, x)
		model, background, x = k.std.inner, k.std.background, xs
	}
	d := len(x)
	nb := len(background)
	perBlock := evalBlockRows / nb
	if perBlock < 1 {
		perBlock = 1
	}
	rowsCap := perBlock * nb
	// Block scratch: rows are fully rewritten (copy + overrides) and preds
	// fully rewritten before any read, so no zeroing; the row headers are
	// re-carved because d differs between pooled users.
	if cap(sc.rowBacking) < rowsCap*d {
		sc.rowBacking = make([]float64, rowsCap*d)
	}
	backing := sc.rowBacking[:rowsCap*d]
	if cap(sc.rows) < rowsCap {
		sc.rows = make([][]float64, rowsCap)
	}
	rows := sc.rows[:rowsCap]
	for r := range rows {
		rows[r] = backing[r*d : (r+1)*d]
	}
	if cap(sc.preds) < rowsCap {
		sc.preds = make([]float64, rowsCap)
	}
	preds := sc.preds[:rowsCap]
	if cap(sc.kept) < d {
		sc.kept = make([]int, 0, d)
	}
	kept := sc.kept[:0] // mask-true feature indices, rebuilt per coalition
	for lo := 0; lo < len(masks); lo += perBlock {
		if err := xai.Canceled(ctx, "shap"); err != nil {
			return err
		}
		hi := lo + perBlock
		if hi > len(masks) {
			hi = len(masks)
		}
		r := 0
		for _, m := range masks[lo:hi] {
			kept = kept[:0]
			for j, on := range m {
				if on {
					kept = append(kept, j)
				}
			}
			for _, bg := range background {
				mat.HybridRow(rows[r], bg, x, kept)
				r++
			}
		}
		ml.PredictBatchParallel(model, rows[:r], preds[:r], 0)
		r = 0
		for ci := lo; ci < hi; ci++ {
			var s float64
			for b := 0; b < nb; b++ {
				s += preds[r]
				r++
			}
			vals[ci] = s / float64(nb)
		}
	}
	return nil
}

// shapleyKernelWeight is the KernelSHAP weight for a coalition of size s
// out of d features: (d−1) / (C(d,s) · s · (d−s)).
func shapleyKernelWeight(d, s int) float64 {
	return float64(d-1) / (binom(d, s) * float64(s) * float64(d-s))
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

// enumerateCoalitions returns every non-trivial mask with its Shapley
// kernel weight, carved out of sc. The returned slices alias the scratch
// and are valid only until it is released.
func enumerateCoalitions(d int, sc *scratch) ([][]bool, []float64) {
	total := (1 << uint(d)) - 2
	backing, masks, weights := sc.drawStorage(total, d)
	for bits := 1; bits < (1<<uint(d))-1; bits++ {
		m := backing[:d:d]
		backing = backing[d:]
		s := 0
		for j := 0; j < d; j++ {
			if bits&(1<<uint(j)) != 0 {
				m[j] = true
				s++
			}
		}
		masks = append(masks, m)
		weights = append(weights, shapleyKernelWeight(d, s))
	}
	return masks, weights
}

// sampleCoalitions draws masks from the size distribution induced by the
// Shapley kernel (paired with their complements for variance reduction);
// sampled masks carry uniform weight since the kernel is absorbed into the
// sampling distribution. Draws are with replacement, so a mask can repeat
// an earlier one; first maps every draw to its first occurrence
// (firstDraws). It draws from sc.rng, which the caller seeds once
// per call, so the progressive estimator's blocks continue one
// deterministic stream: block b's masks depend only on the seed and how
// many draws preceded them, which is what makes partial results
// reproducible for a fixed seed and block count. The returned slices alias
// sc and are valid only until the scratch is released; storage reuse
// never changes which coalitions a given rng stream produces.
func sampleCoalitions(d, budget int, sc *scratch) (masks [][]bool, weights []float64, first []int) {
	// Size distribution p(s) ∝ (d−1)/(s(d−s)) for s in 1..d−1. sizeW[0]
	// is never written by the fill loop, so the reused slice is cleared
	// first.
	if cap(sc.sizeW) < d {
		sc.sizeW = make([]float64, d)
	}
	sizeW := sc.sizeW[:d]
	clear(sizeW)
	for s := 1; s < d; s++ {
		sizeW[s] = float64(d-1) / (float64(s) * float64(d-s))
	}
	sizeWSum := sum(sizeW) // invariant across draws; hoisted out of the loop
	backing, masks, weights := sc.drawStorage(budget, d)
	nextMask := func() []bool {
		m := backing[:d:d]
		backing = backing[d:]
		return m
	}
	if cap(sc.perm) < d {
		sc.perm = make([]int, d)
	}
	perm := sc.perm[:d]
	for i := range perm {
		perm[i] = i
	}
	rng := sc.rng
	for len(masks) < budget {
		// Draw a size.
		u := rng.Float64() * sizeWSum
		s := 1
		for ; s < d-1; s++ {
			u -= sizeW[s]
			if u < 0 {
				break
			}
		}
		rng.Shuffle(d, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		m := nextMask()
		for _, j := range perm[:s] {
			m[j] = true
		}
		masks = append(masks, m)
		weights = append(weights, 1)
		if len(masks) < budget {
			// Paired (antithetic) complement.
			c := nextMask()
			for j := range c {
				c[j] = !m[j]
			}
			masks = append(masks, c)
			weights = append(weights, 1)
		}
	}
	return masks, weights, firstDraws(masks, sc)
}

// firstDraws returns, for every draw i, the index of the earliest draw
// whose mask equals masks[i] (i itself for a first occurrence). Masks
// are hashed into an open-addressing table of at least twice the draw
// count, held in sc like the returned slice, and every hash match is
// confirmed by comparing the masks, so a collision never merges two
// coalitions. The table is sized to draws, not to perturbation rows.
func firstDraws(masks [][]bool, sc *scratch) []int {
	n := len(masks)
	size := 1
	for size < 2*n {
		size <<= 1
	}
	if cap(sc.table) < size {
		sc.table = make([]int, size)
	}
	table := sc.table[:size] // draw index + 1; 0 marks an empty slot
	clear(table)
	if cap(sc.first) < n {
		sc.first = make([]int, n)
	}
	first := sc.first[:n]
	for i, m := range masks {
		slot := maskHash(m) & uint64(size-1)
		for table[slot] != 0 && !slices.Equal(masks[table[slot]-1], m) {
			slot = (slot + 1) & uint64(size-1)
		}
		if table[slot] == 0 {
			table[slot] = i + 1
		}
		first[i] = table[slot] - 1
	}
	return first
}

// maskHash packs a mask's bits 64 to a word and mixes each word into the
// hash with the murmur3 64-bit finalizer.
func maskHash(m []bool) uint64 {
	var h, w uint64
	for j, on := range m {
		if on {
			w |= 1 << (j & 63)
		}
		if j&63 == 63 {
			h = fmix64(h ^ w)
			w = 0
		}
	}
	return fmix64(h ^ w)
}

func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func sum(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}

// Exact computes Shapley values by full subset enumeration (O(2^d) value
// evaluations, each averaging over the background). It is the correctness
// oracle for the estimators; keep d small (≤ 12).
func Exact(ctx context.Context, model ml.Predictor, background [][]float64, x []float64) (xai.Attribution, error) {
	d := len(x)
	if d == 0 || d > 20 {
		return xai.Attribution{}, fmt.Errorf("shap: Exact supports 1..20 features, got %d", d)
	}
	if len(background) == 0 {
		return xai.Attribution{}, errors.New("shap: empty background")
	}
	k := &Kernel{Model: model, Background: background}
	sc := getScratch()
	defer sc.release()
	// Precompute v(S) for all subsets, batched through the model's fast path.
	n := 1 << uint(d)
	//lint:allow poolalloc Exact is the one-shot reference API, not a serving path
	vals := make([]float64, n)
	masks := make([][]bool, n)
	backing := make([]bool, n*d)
	for bits := 0; bits < n; bits++ {
		m := backing[bits*d : (bits+1)*d]
		for j := 0; j < d; j++ {
			m[j] = bits&(1<<uint(j)) != 0
		}
		masks[bits] = m
	}
	if err := k.evalCoalitions(ctx, x, masks, nil, vals, sc); err != nil {
		return xai.Attribution{}, err
	}
	//lint:allow poolalloc Exact is the one-shot reference API, not a serving path
	phi := make([]float64, d)
	for j := 0; j < d; j++ {
		bit := 1 << uint(j)
		for bits := 0; bits < n; bits++ {
			if bits&bit != 0 {
				continue
			}
			s := popcount(bits)
			w := fact(s) * fact(d-s-1) / fact(d)
			phi[j] += w * (vals[bits|bit] - vals[bits])
		}
	}
	return xai.Attribution{Phi: phi, Base: vals[0], Value: vals[n-1]}, nil
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

func fact(n int) float64 {
	r := 1.0
	for i := 2; i <= n; i++ {
		r *= float64(i)
	}
	return r
}

// SampleBackground draws up to n rows from X to serve as a background set.
func SampleBackground(rng *rand.Rand, X [][]float64, n int) [][]float64 {
	if n >= len(X) {
		out := make([][]float64, len(X))
		copy(out, X)
		return out
	}
	idx := rng.Perm(len(X))[:n]
	out := make([][]float64, n)
	for i, j := range idx {
		out[i] = X[j]
	}
	return out
}

// meanPrediction is exposed for tests that need the background mean.
func meanPrediction(model ml.Predictor, X [][]float64) float64 {
	var s float64
	for _, x := range X {
		s += model.Predict(x)
	}
	return s / math.Max(1, float64(len(X)))
}
