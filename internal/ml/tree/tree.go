// Package tree implements CART decision trees for regression (variance
// reduction) and binary classification (Gini impurity). Trees are stored
// as a flat node array with integer child links, which keeps prediction
// cache-friendly and gives the TreeSHAP explainer (internal/xai/treeshap)
// direct access to per-node covers and split structure.
package tree

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"nfvxai/internal/dataset"
)

// Leaf marks the absence of a child or split feature.
const Leaf = -1

// Node is one tree node. Interior nodes route x to Left when
// x[Feature] <= Threshold, otherwise Right. Leaves have Feature == Leaf.
type Node struct {
	Feature   int     // split feature, or Leaf
	Threshold float64 // split threshold
	Left      int     // index of left child, or Leaf
	Right     int     // index of right child, or Leaf
	Value     float64 // node prediction (mean target / positive fraction)
	Cover     float64 // training samples routed through this node
}

// IsLeaf reports whether the node is terminal.
func (n Node) IsLeaf() bool { return n.Feature == Leaf }

// Config controls tree induction.
type Config struct {
	Task dataset.Task
	// MaxDepth bounds the tree depth (root = depth 0). 0 means default 12.
	MaxDepth int
	// MinLeaf is the minimum samples in each child (default 1).
	MinLeaf int
	// MinSplit is the minimum samples required to attempt a split (default 2).
	MinSplit int
	// MaxFeatures is the number of features sampled per split; 0 means all
	// (random forests set sqrt(p) or p/3).
	MaxFeatures int
	// Seed drives feature subsampling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
	if c.MinSplit < 2 {
		c.MinSplit = 2
	}
	return c
}

// Tree is a fitted CART tree.
type Tree struct {
	Nodes []Node
	Cfg   Config

	nFeatures  int
	importance []float64 // accumulated split gain per feature

	// flat is the SoA mirror of Nodes used by the batch-inference fast
	// path; built at fit time (or lazily on first PredictBatch) and
	// invalidated when Nodes is mutated. See flatTree.
	flat   atomic.Pointer[flatTree]
	flatMu sync.Mutex
}

// flatTree is the batch-inference snapshot of the node table, split SoA
// style into a hot routing array and a cold value array. Nodes are
// renumbered breadth-first so siblings are adjacent (right = left+1):
// routing needs only threshold/feature/left, which packs each node into a
// 16-byte record — one bounds-checked load per traversal step against the
// 48-byte Node struct copy Predict performs, and four records per cache
// line.
//
// The traversal condition is !(x <= threshold) → right, matching Predict
// exactly — including for NaN feature values, which both paths send right.
type flatTree struct {
	routing []flatNode
	value   []float64 // node predictions, same BFS numbering
}

// flatNode is the 16-byte routing record of one node.
type flatNode struct {
	threshold float64
	feature   int32 // split feature, or Leaf
	left      int32 // BFS index of left child; right child is left+1
}

// flatView returns the flattened layout, building it on first use.
// Concurrent PredictBatch callers may race to build; the double-checked
// mutex makes that safe and at-most-once.
func (t *Tree) flatView() *flatTree {
	if f := t.flat.Load(); f != nil {
		return f
	}
	t.flatMu.Lock()
	defer t.flatMu.Unlock()
	if f := t.flat.Load(); f != nil {
		return f
	}
	n := len(t.Nodes)
	f := &flatTree{routing: make([]flatNode, n), value: make([]float64, n)}
	if n > 0 {
		// BFS renumbering: oldOf[newID] is the Nodes index of the node
		// assigned BFS slot newID; a visited interior node claims the next
		// two slots for its children, making siblings adjacent.
		oldOf := make([]int32, 1, n)
		for newID := 0; newID < len(oldOf); newID++ {
			nd := t.Nodes[oldOf[newID]]
			f.value[newID] = nd.Value
			if nd.IsLeaf() {
				f.routing[newID] = flatNode{feature: Leaf}
				continue
			}
			l := int32(len(oldOf))
			oldOf = append(oldOf, int32(nd.Left), int32(nd.Right))
			f.routing[newID] = flatNode{threshold: nd.Threshold, feature: int32(nd.Feature), left: l}
		}
	}
	t.flat.Store(f)
	return f
}

// InvalidateFlat discards the flattened batch-inference layout. Callers
// that mutate Nodes directly (e.g. boosting's Newton leaf correction)
// must invalidate so the next PredictBatch rebuilds from the updated
// table.
func (t *Tree) InvalidateFlat() {
	t.flat.Store(nil)
}

// PredictBatch implements ml.BatchPredictor over the flattened layout.
func (t *Tree) PredictBatch(X [][]float64, out []float64) {
	f := t.flatView()
	routing, value := f.routing, f.value
	for i, x := range X {
		j := int32(0)
		nd := routing[0]
		for nd.feature != Leaf {
			j = nd.left
			if !(x[nd.feature] <= nd.threshold) { // NaN routes right, as in Predict
				j++
			}
			nd = routing[j]
		}
		out[i] = value[j]
	}
}

// PredictBatchAdd accumulates w·Predict(X[i]) into out[i] — the ensemble
// building block: summing tree-by-tree into a shared output slice keeps
// the addition order identical to a per-row Predict loop over the trees.
func (t *Tree) PredictBatchAdd(X [][]float64, out []float64, w float64) {
	f := t.flatView()
	routing, value := f.routing, f.value
	for i, x := range X {
		j := int32(0)
		nd := routing[0]
		for nd.feature != Leaf {
			j = nd.left
			if !(x[nd.feature] <= nd.threshold) { // NaN routes right, as in Predict
				j++
			}
			nd = routing[j]
		}
		out[i] += w * value[j]
	}
}

// New returns an unfitted tree with the given configuration.
func New(cfg Config) *Tree { return &Tree{Cfg: cfg} }

// Fit trains on the full dataset.
func (t *Tree) Fit(d *dataset.Dataset) error {
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	return t.FitIndices(d, idx, nil)
}

// FitIndices trains on the subset of d selected by idx (with repetitions
// allowed, as produced by bootstrap sampling). sampleWeight may be nil; when
// present it weights each selected row (used by boosting).
func (t *Tree) FitIndices(d *dataset.Dataset, idx []int, sampleWeight []float64) error {
	if len(idx) == 0 || d.NumFeatures() == 0 {
		return errors.New("tree: empty training set")
	}
	cfg := t.Cfg.withDefaults()
	t.nFeatures = d.NumFeatures()
	t.importance = make([]float64, t.nFeatures)
	t.Nodes = t.Nodes[:0]
	b := &builder{
		d:   d,
		cfg: cfg,
		t:   t,
		rng: rand.New(rand.NewSource(cfg.Seed + 0x9E3779B9)),
	}
	if sampleWeight != nil {
		if len(sampleWeight) != d.Len() {
			return fmt.Errorf("tree: sampleWeight length %d != dataset %d", len(sampleWeight), d.Len())
		}
		b.weight = sampleWeight
	}
	own := make([]int, len(idx))
	copy(own, idx)
	t.InvalidateFlat() // Nodes is being replaced; drop any stale SoA view
	b.grow(own, 0)
	t.flatView() // build the batch layout once, at fit time
	return nil
}

// Predict implements ml.Predictor.
func (t *Tree) Predict(x []float64) float64 {
	return t.Nodes[t.LeafIndex(x)].Value
}

// LeafIndex returns the index of the leaf x is routed to.
func (t *Tree) LeafIndex(x []float64) int {
	i := 0
	for {
		n := t.Nodes[i]
		if n.IsLeaf() {
			return i
		}
		if x[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// DecisionStep records one routing decision on a prediction path; used by
// the operator-facing explanation reports.
type DecisionStep struct {
	Feature   int
	Threshold float64
	Value     float64 // the feature value observed
	Left      bool    // whether x went left (<= threshold)
}

// DecisionPath returns the sequence of split decisions for x.
func (t *Tree) DecisionPath(x []float64) []DecisionStep {
	var path []DecisionStep
	i := 0
	for {
		n := t.Nodes[i]
		if n.IsLeaf() {
			return path
		}
		left := x[n.Feature] <= n.Threshold
		path = append(path, DecisionStep{Feature: n.Feature, Threshold: n.Threshold, Value: x[n.Feature], Left: left})
		if left {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// Depth returns the maximum depth of the tree (root = 0).
func (t *Tree) Depth() int {
	var rec func(i, d int) int
	rec = func(i, d int) int {
		n := t.Nodes[i]
		if n.IsLeaf() {
			return d
		}
		l := rec(n.Left, d+1)
		r := rec(n.Right, d+1)
		if l > r {
			return l
		}
		return r
	}
	if len(t.Nodes) == 0 {
		return 0
	}
	return rec(0, 0)
}

// NumLeaves returns the leaf count.
func (t *Tree) NumLeaves() int {
	c := 0
	for _, n := range t.Nodes {
		if n.IsLeaf() {
			c++
		}
	}
	return c
}

// NumFeatures returns the feature dimensionality seen at fit time.
func (t *Tree) NumFeatures() int { return t.nFeatures }

// FeatureImportance returns gain-based importances normalized to sum to 1
// (all zeros for a stump with no splits).
func (t *Tree) FeatureImportance() []float64 {
	out := make([]float64, len(t.importance))
	var total float64
	for _, v := range t.importance {
		total += v
	}
	if total == 0 {
		return out
	}
	for i, v := range t.importance {
		out[i] = v / total
	}
	return out
}

// builder carries induction state.
type builder struct {
	d      *dataset.Dataset
	cfg    Config
	t      *Tree
	rng    *rand.Rand
	weight []float64 // optional per-row weights
}

func (b *builder) w(i int) float64 {
	if b.weight == nil {
		return 1
	}
	return b.weight[i]
}

// grow builds the subtree over idx and returns its node index.
func (b *builder) grow(idx []int, depth int) int {
	value, impurity, wsum := b.leafStats(idx)
	self := len(b.t.Nodes)
	b.t.Nodes = append(b.t.Nodes, Node{Feature: Leaf, Left: Leaf, Right: Leaf, Value: value, Cover: wsum})

	if depth >= b.cfg.MaxDepth || len(idx) < b.cfg.MinSplit || impurity <= 1e-12 {
		return self
	}
	feat, thresh, gain, ok := b.bestSplit(idx, impurity, wsum)
	if !ok {
		return self
	}
	var left, right []int
	for _, i := range idx {
		if b.d.X[i][feat] <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.cfg.MinLeaf || len(right) < b.cfg.MinLeaf {
		return self
	}
	b.t.importance[feat] += gain
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	b.t.Nodes[self].Feature = feat
	b.t.Nodes[self].Threshold = thresh
	b.t.Nodes[self].Left = l
	b.t.Nodes[self].Right = r
	return self
}

// leafStats returns the node prediction, impurity, and weighted count.
// Impurity is weighted SSE for regression and weighted Gini for
// classification (both scaled by the weight sum so gains are comparable).
func (b *builder) leafStats(idx []int) (value, impurity, wsum float64) {
	var sum float64
	for _, i := range idx {
		w := b.w(i)
		wsum += w
		sum += w * b.d.Y[i]
	}
	if wsum == 0 {
		return 0, 0, 0
	}
	mean := sum / wsum
	if b.cfg.Task == dataset.Classification {
		p := mean // fraction of positive labels
		return p, wsum * p * (1 - p) * 2, wsum
	}
	var sse float64
	for _, i := range idx {
		d := b.d.Y[i] - mean
		sse += b.w(i) * d * d
	}
	return mean, sse, wsum
}

// bestSplit scans candidate features for the split maximizing impurity
// decrease. Features are subsampled when MaxFeatures is set.
func (b *builder) bestSplit(idx []int, parentImpurity, parentW float64) (feat int, thresh, gain float64, ok bool) {
	p := b.d.NumFeatures()
	candidates := make([]int, p)
	for j := range candidates {
		candidates[j] = j
	}
	if b.cfg.MaxFeatures > 0 && b.cfg.MaxFeatures < p {
		b.rng.Shuffle(p, func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
		candidates = candidates[:b.cfg.MaxFeatures]
	}

	type pair struct {
		v, y, w float64
	}
	pairs := make([]pair, 0, len(idx))
	bestGain := 1e-12
	for _, f := range candidates {
		pairs = pairs[:0]
		for _, i := range idx {
			pairs = append(pairs, pair{v: b.d.X[i][f], y: b.d.Y[i], w: b.w(i)})
		}
		sort.Slice(pairs, func(a, c int) bool { return pairs[a].v < pairs[c].v })

		// Prefix statistics: weighted count, sum, sum of squares.
		var lw, lsum, lsq float64
		var tw, tsum, tsq float64
		for _, pr := range pairs {
			tw += pr.w
			tsum += pr.w * pr.y
			tsq += pr.w * pr.y * pr.y
		}
		nLeft := 0
		for k := 0; k < len(pairs)-1; k++ {
			pr := pairs[k]
			lw += pr.w
			lsum += pr.w * pr.y
			lsq += pr.w * pr.y * pr.y
			nLeft++
			if pairs[k+1].v == pr.v {
				continue // cannot split between equal values
			}
			if nLeft < b.cfg.MinLeaf || len(pairs)-nLeft < b.cfg.MinLeaf {
				continue
			}
			rw := tw - lw
			if lw <= 0 || rw <= 0 {
				continue
			}
			var childImpurity float64
			if b.cfg.Task == dataset.Classification {
				pl := lsum / lw
				prr := (tsum - lsum) / rw
				childImpurity = lw*pl*(1-pl)*2 + rw*prr*(1-prr)*2
			} else {
				// SSE = Σw y² − (Σw y)²/Σw for each side.
				lsse := lsq - lsum*lsum/lw
				rsse := (tsq - lsq) - (tsum-lsum)*(tsum-lsum)/rw
				childImpurity = lsse + rsse
			}
			g := parentImpurity - childImpurity
			if g > bestGain {
				bestGain = g
				feat = f
				thresh = (pr.v + pairs[k+1].v) / 2
				ok = true
			}
		}
	}
	return feat, thresh, bestGain, ok
}
