// Masked coalition evaluation for additive tree ensembles.
//
// A KernelSHAP perturbed row is always a two-source hybrid: feature j
// comes from x when the coalition mask holds j, from one background row b
// otherwise. For a fixed (tree, b) pair, a split node where x and b fall
// on the SAME side routes every hybrid the same way regardless of the
// mask — only the nodes where they diverge consult the mask at all. So
// per Explain we precompute, for every (tree, background) pair, a reduced
// "divergence tree" with the agreeing chains collapsed: its interior
// nodes carry just a feature index with an x-side and a b-side child, and
// its leaves carry the tree's prediction for that hybrid region. A
// coalition evaluation is then a walk of a few mask lookups — no row
// assembly, no float compares — and a pair whose paths never diverge
// collapses to a single constant.
//
// The fast path applies when the model decomposes as
// link(base + Σ w_t · tree_t(x)) with link = identity or the logistic
// sigmoid (random forests, gradient-boosted trees); the decomposition is
// verified numerically against Predict before use, and any mismatch
// falls back to the generic batched evaluator.

package shap

import (
	"context"
	"math"

	"nfvxai/internal/ml/tree"
	"nfvxai/internal/xai"
)

// componentEnsemble mirrors treeshap.Ensemble: the additive decomposition
// of a model as (trees, per-tree weights, base offset). Declared locally
// to keep shap importing only the tree package.
type componentEnsemble interface {
	ComponentTrees() ([]*tree.Tree, []float64, float64)
}

// maskedEvaluator is the per-Kernel state of the fast path.
type maskedEvaluator struct {
	trees []*tree.Tree
	w     []float64
	base  float64
	link  func(float64) float64 // nil = identity
}

// verifyTol is the relative reconstruction tolerance for accepting the
// additive decomposition.
const verifyTol = 1e-9

// newMaskedEvaluator inspects the model and returns a masked evaluator if
// the (link ∘ additive-trees) decomposition reproduces Predict on the
// probe rows, else nil.
func newMaskedEvaluator(k *Kernel) *maskedEvaluator {
	ce, ok := k.Model.(componentEnsemble)
	if !ok {
		return nil
	}
	trees, w, base := ce.ComponentTrees()
	if len(trees) == 0 || len(trees) != len(w) {
		return nil
	}
	probes := k.Background
	if len(probes) > 3 {
		probes = probes[:3]
	}
	for _, link := range []func(float64) float64{nil, stableSigmoid} {
		ok := true
		for _, p := range probes {
			raw := base
			for t, tr := range trees {
				raw += w[t] * tr.Predict(p)
			}
			if link != nil {
				raw = link(raw)
			}
			want := k.Model.Predict(p)
			if math.Abs(raw-want) > verifyTol*math.Max(1, math.Abs(want)) {
				ok = false
				break
			}
		}
		if ok {
			return &maskedEvaluator{trees: trees, w: w, base: base, link: link}
		}
	}
	return nil
}

func stableSigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// reduced is one (tree, background) divergence tree in flat preorder
// storage. feature[i] < 0 marks a leaf whose prediction is value[i];
// interior nodes route to xChild when the coalition mask keeps the
// feature (hybrid takes x's value) and to bChild otherwise.
type reduced struct {
	feature []int32
	xChild  []int32
	bChild  []int32
	value   []float64
}

func (r *reduced) reset() {
	r.feature = r.feature[:0]
	r.xChild = r.xChild[:0]
	r.bChild = r.bChild[:0]
	r.value = r.value[:0]
}

// build collapses the subtree at node j for the hybrid family (x, b) and
// returns the reduced index of the emitted node.
func (r *reduced) build(nodes []tree.Node, j int, x, b []float64) int32 {
	for {
		nd := nodes[j]
		if nd.IsLeaf() {
			id := int32(len(r.feature))
			r.feature = append(r.feature, -1)
			r.xChild = append(r.xChild, 0)
			r.bChild = append(r.bChild, 0)
			r.value = append(r.value, nd.Value)
			return id
		}
		dx := x[nd.Feature] <= nd.Threshold
		db := b[nd.Feature] <= nd.Threshold
		if dx == db {
			// Both sources agree: the mask is irrelevant here; collapse.
			if dx {
				j = nd.Left
			} else {
				j = nd.Right
			}
			continue
		}
		id := int32(len(r.feature))
		r.feature = append(r.feature, int32(nd.Feature))
		r.xChild = append(r.xChild, 0)
		r.bChild = append(r.bChild, 0)
		r.value = append(r.value, 0)
		xj, bj := nd.Left, nd.Right
		if !dx {
			xj, bj = nd.Right, nd.Left
		}
		xc := r.build(nodes, xj, x, b)
		bc := r.build(nodes, bj, x, b)
		r.xChild[id] = xc
		r.bChild[id] = bc
		return id
	}
}

// evalCoalitions fills vals[ci] with the coalition value of masks[ci]
// (mean over background of the hybrid prediction). The accumulation
// order — trees in ensemble order per background row, background rows in
// order — matches the row-at-a-time evaluator, so results agree to within
// floating-point reassociation of the per-tree weights (≪ 1e-9).
// Cancellation is checked once per background row, the outer unit of work.
func (e *maskedEvaluator) evalCoalitions(ctx context.Context, x []float64, bg [][]float64, masks [][]bool, vals []float64, sc *scratch) error {
	nc := len(masks)
	nb := len(bg)
	// acc[bi*nc+ci] accumulates Σ_t w_t·tree_t(hybrid); the bi-major
	// layout keeps each (tree, background) sweep writing one contiguous
	// nc-length stripe. It is written with +=, so the reused buffer is
	// cleared first.
	if cap(sc.acc) < nb*nc {
		sc.acc = make([]float64, nb*nc)
	}
	acc := sc.acc[:nb*nc]
	clear(acc)
	// Divergence-tree storage: reset (not reallocated) per (tree,
	// background) pair, retained across Explain calls.
	r := &sc.red
	for bi, b := range bg {
		if err := xai.Canceled(ctx, "shap"); err != nil {
			return err
		}
		row := acc[bi*nc : (bi+1)*nc]
		for ti, tr := range e.trees {
			wt := e.w[ti]
			r.reset()
			r.build(tr.Nodes, 0, x, b)
			if r.feature[0] < 0 {
				// x and b never diverge in this tree: constant contribution.
				v := wt * r.value[0]
				for ci := range row {
					row[ci] += v
				}
				continue
			}
			feat, xc, bc, val := r.feature, r.xChild, r.bChild, r.value
			for ci, m := range masks {
				j := int32(0)
				f := feat[0]
				for f >= 0 {
					if m[f] {
						j = xc[j]
					} else {
						j = bc[j]
					}
					f = feat[j]
				}
				row[ci] += wt * val[j]
			}
		}
	}
	for ci := range vals {
		var s float64
		for bi := 0; bi < nb; bi++ {
			v := e.base + acc[bi*nc+ci]
			if e.link != nil {
				v = e.link(v)
			}
			s += v
		}
		vals[ci] = s / float64(nb)
	}
	return nil
}
