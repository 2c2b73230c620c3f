// Package treeshap implements the path-dependent TreeSHAP algorithm
// (Lundberg, Erion & Lee, 2018): exact Shapley values for CART trees and
// tree ensembles in O(leaves · depth²) per tree, using per-node training
// covers to define the conditional expectations. The attribution explains
// the ensemble's additive raw score (for gradient boosting that is the
// margin/log-odds).
//
// The recursion keeps the layout of the reference implementation (shap's
// C++ tree_shap): one path arena per Explain call, in which each recursion
// level copies its parent's unique-feature path into its own segment and
// extends or unwinds that copy in place, so sibling subtrees reuse the
// same space. A level-k segment holds at most 1 + min(k, d) elements for
// d input features, because a feature already on the path is unwound
// before it is extended again, so the arena is Σ_{k=0..D} (1 + min(k, d))
// elements for an ensemble of max depth D, at most (D+1)(d+1): depth ×
// width, not depth². A depth-only bound, (D+2)(D+3)/2, would let one deep
// imported artifact force an allocation quadratic in its depth: ~400 MB
// for a 5,000-deep chain over 2 features, against 480 KB here.
//
// Each tree's expected value and the ensemble's max depth are computed
// once per Explainer, on its first Explain. After that an Explain makes
// three allocations of its own whatever the ensemble's size (the returned
// φ, one per-tree φ buffer cleared before each tree, and the path arena),
// plus what the model's ComponentTrees allocates (one weight slice for a
// forest or a GBT).
package treeshap

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"nfvxai/internal/ml"
	"nfvxai/internal/ml/tree"
	"nfvxai/internal/xai"
)

// init registers TreeSHAP in the xai method registry. It is exact and
// deterministic but tree-only: the model must decompose into an additive
// ensemble of CART trees (Ensemble, or a bare *tree.Tree).
func init() {
	xai.Register(xai.Method{
		Name: "treeshap",
		Kind: xai.KindLocal,
		Caps: xai.Capabilities{
			TreeOnly:      true,
			SupportsBatch: true,
			Deterministic: true,
			Additive:      true,
		},
		Compatible: func(m ml.Predictor) bool {
			_, ok := asEnsemble(m)
			return ok
		},
		Build: func(t xai.Target, _ xai.Options) (xai.Explainer, error) {
			ens, ok := asEnsemble(t.Model)
			if !ok {
				return nil, fmt.Errorf("%w: treeshap needs an additive tree ensemble", xai.ErrUnsupportedModel)
			}
			return &Explainer{Model: ens, Names: t.Names}, nil
		},
	})
}

// asEnsemble adapts a predictor to the additive-tree contract when it has
// one: Ensemble implementations pass through, lone CART trees are wrapped.
func asEnsemble(m ml.Predictor) (Ensemble, bool) {
	switch t := m.(type) {
	case Ensemble:
		return t, true
	case *tree.Tree:
		return Single(t), true
	default:
		return nil, false
	}
}

// Ensemble is the additive tree-model contract: a weighted sum of CART
// trees plus a constant base offset. forest.RandomForest and
// forest.GradientBoosting implement it.
type Ensemble interface {
	ComponentTrees() (trees []*tree.Tree, weights []float64, base float64)
}

// singleTree adapts one CART tree to the Ensemble interface.
type singleTree struct{ t *tree.Tree }

func (s singleTree) ComponentTrees() ([]*tree.Tree, []float64, float64) {
	return []*tree.Tree{s.t}, []float64{1}, 0
}

// Single wraps a lone CART tree as an Ensemble.
func Single(t *tree.Tree) Ensemble { return singleTree{t} }

// Explainer computes TreeSHAP attributions for an additive tree ensemble.
// A struct literal is ready to use and safe for concurrent Explain calls.
// Each tree's expected value and the ensemble's max depth are read from
// Model on the first Explain and kept, so Model must not change after it.
type Explainer struct {
	Model Ensemble
	// Names are optional feature names copied into attributions.
	Names []string

	prepOnce sync.Once
	expected []float64 // ExpectedValue of each component tree
	maxDepth int       // deepest component tree
}

// Explain returns the exact (path-dependent) Shapley attribution at x.
// Cancellation is checked once per component tree.
func (e *Explainer) Explain(ctx context.Context, x []float64) (xai.Attribution, error) {
	trees, weights, base := e.Model.ComponentTrees()
	if len(trees) == 0 {
		return xai.Attribution{}, errors.New("treeshap: empty ensemble")
	}
	if len(trees) != len(weights) {
		return xai.Attribution{}, fmt.Errorf("treeshap: %d trees but %d weights", len(trees), len(weights))
	}
	e.prepOnce.Do(func() {
		e.expected = make([]float64, len(trees))
		for i, t := range trees {
			e.expected[i] = ExpectedValue(t)
			e.maxDepth = max(e.maxDepth, t.Depth())
		}
	})
	d := len(x)
	phi := make([]float64, d)
	tp := make([]float64, d)
	path := make([]pathElem, pathLen(e.maxDepth, d))
	baseValue := base
	value := base
	for i, t := range trees {
		if err := xai.Canceled(ctx, "treeshap"); err != nil {
			return xai.Attribution{}, err
		}
		if t.NumFeatures() > d {
			return xai.Attribution{}, fmt.Errorf("treeshap: tree expects %d features, input has %d", t.NumFeatures(), d)
		}
		w := weights[i]
		shapTree(t, x, tp, path)
		for j := range tp {
			phi[j] += w * tp[j]
		}
		baseValue += w * e.expected[i]
		value += w * t.Predict(x)
	}
	return xai.Attribution{Names: e.Names, Phi: phi, Base: baseValue, Value: value}, nil
}

// ExpectedValue returns the cover-weighted mean leaf value of the tree,
// i.e. the path-dependent expectation E[f] that TreeSHAP measures
// contributions against.
func ExpectedValue(t *tree.Tree) float64 {
	var rec func(i int) float64
	rec = func(i int) float64 {
		n := t.Nodes[i]
		if n.IsLeaf() {
			return n.Value
		}
		l, r := t.Nodes[n.Left], t.Nodes[n.Right]
		return (l.Cover*rec(n.Left) + r.Cover*rec(n.Right)) / n.Cover
	}
	if len(t.Nodes) == 0 {
		return 0
	}
	return rec(0)
}

// pathElem is one entry of the feature path maintained by the recursion.
// Fields follow the paper's notation: d = feature index, z = fraction of
// paths flowing through when the feature is "cold" (not fixed to x),
// o = fraction when "hot" (fixed to x), w = permutation weight.
type pathElem struct {
	d    int
	z, o float64
	w    float64
}

// pathLen is the arena size, in path elements, for trees of max depth
// maxDepth over d features: the level-k segment holds the root
// placeholder plus one element per distinct feature split on above it.
func pathLen(maxDepth, d int) int {
	n := 0
	for k := 0; k <= maxDepth; k++ {
		n += 1 + min(k, d)
	}
	return n
}

// shapTree overwrites phi (len(x) elements) with the per-feature Shapley
// contributions of a single tree at x. path is the recursion's arena and
// must hold pathLen(t.Depth(), len(x)) elements.
func shapTree(t *tree.Tree, x, phi []float64, path []pathElem) {
	clear(phi)
	if len(t.Nodes) == 0 {
		return
	}
	recurse(t, x, phi, 0, nil, path, 1, 1, -1)
}

// recurse implements RECURSE from Algorithm 2. parent is the caller's
// unique path (element 0 is the root's "no feature" placeholder) and free
// the arena past it: this level copies parent into the front of free and
// extends or unwinds its copy in place, and both children place their
// segments right after it, so siblings reuse the same space.
func recurse(t *tree.Tree, x, phi []float64, j int, parent, free []pathElem, pz, po float64, pi int) {
	l := len(parent)
	m := free[:l+1]
	copy(m, parent)
	extend(m, pz, po, pi)
	free = free[l+1:]
	n := t.Nodes[j]
	if n.IsLeaf() {
		for i := 1; i < len(m); i++ {
			w := unwoundSum(m, i)
			phi[m[i].d] += w * (m[i].o - m[i].z) * n.Value
		}
		return
	}
	hot, cold := n.Left, n.Right
	if !(x[n.Feature] <= n.Threshold) { // NaN routes right, as in Predict
		hot, cold = n.Right, n.Left
	}
	iz, io := 1.0, 1.0
	// If the feature already occurs on the path, undo its previous
	// extension and inherit its fractions.
	for k := 1; k < len(m); k++ {
		if m[k].d == n.Feature {
			iz, io = m[k].z, m[k].o
			m = unwind(m, k)
			break
		}
	}
	rj := n.Cover
	recurse(t, x, phi, hot, m, free, iz*t.Nodes[hot].Cover/rj, io, n.Feature)
	recurse(t, x, phi, cold, m, free, iz*t.Nodes[cold].Cover/rj, 0, n.Feature)
}

// extend implements EXTEND in place: m's last slot receives feature pi
// with cold/hot fractions pz/po, and the weights of the path before it
// are updated.
func extend(m []pathElem, pz, po float64, pi int) {
	l := len(m) - 1 // element count before the extension
	w := 0.0
	if l == 0 {
		w = 1
	}
	m[l] = pathElem{d: pi, z: pz, o: po, w: w}
	for i := l - 1; i >= 0; i-- {
		m[i+1].w += po * m[i].w * float64(i+1) / float64(l+1)
		m[i].w = pz * m[i].w * float64(l-i) / float64(l+1)
	}
}

// unwind implements UNWIND in place: remove path element i, reversing its
// EXTEND, and return the path one element shorter.
func unwind(m []pathElem, i int) []pathElem {
	l := len(m) - 1 // index of the last element
	// Restore weights.
	oi, zi := m[i].o, m[i].z
	n := m[l].w
	if oi != 0 {
		for j := l - 1; j >= 0; j-- {
			tmp := m[j].w
			m[j].w = n * float64(l+1) / (float64(j+1) * oi)
			n = tmp - m[j].w*zi*float64(l-j)/float64(l+1)
		}
	} else {
		for j := l - 1; j >= 0; j-- {
			m[j].w = m[j].w * float64(l+1) / (zi * float64(l-j))
		}
	}
	// Shift elements above i down.
	for j := i; j < l; j++ {
		m[j].d, m[j].z, m[j].o = m[j+1].d, m[j+1].z, m[j+1].o
	}
	return m[:l]
}

// unwoundSum returns the sum of weights after notionally unwinding element
// i, without materializing the unwound path.
func unwoundSum(m []pathElem, i int) float64 {
	l := len(m) - 1
	oi, zi := m[i].o, m[i].z
	var total float64
	if oi != 0 {
		n := m[l].w
		for j := l - 1; j >= 0; j-- {
			tmp := n * float64(l+1) / (float64(j+1) * oi)
			total += tmp
			n = m[j].w - tmp*zi*float64(l-j)/float64(l+1)
		}
	} else {
		for j := l - 1; j >= 0; j-- {
			total += m[j].w * float64(l+1) / (zi * float64(l-j))
		}
	}
	return total
}
