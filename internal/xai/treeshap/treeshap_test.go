package treeshap

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"nfvxai/internal/dataset"
	"nfvxai/internal/ml/forest"
	"nfvxai/internal/ml/tree"
	"nfvxai/internal/xai"
)

// expValue is the brute-force path-dependent conditional expectation
// (Algorithm 1 in the TreeSHAP paper): follow x on features in S, average
// children by cover otherwise.
func expValue(t *tree.Tree, x []float64, s map[int]bool) float64 {
	var rec func(i int) float64
	rec = func(i int) float64 {
		n := t.Nodes[i]
		if n.IsLeaf() {
			return n.Value
		}
		if s[n.Feature] {
			if x[n.Feature] <= n.Threshold {
				return rec(n.Left)
			}
			return rec(n.Right)
		}
		l, r := t.Nodes[n.Left], t.Nodes[n.Right]
		return (l.Cover*rec(n.Left) + r.Cover*rec(n.Right)) / n.Cover
	}
	return rec(0)
}

// bruteShapley enumerates all subsets to compute exact Shapley values of
// the expValue set function.
func bruteShapley(t *tree.Tree, x []float64) []float64 {
	d := len(x)
	n := 1 << uint(d)
	vals := make([]float64, n)
	for bits := 0; bits < n; bits++ {
		s := map[int]bool{}
		for j := 0; j < d; j++ {
			if bits&(1<<uint(j)) != 0 {
				s[j] = true
			}
		}
		vals[bits] = expValue(t, x, s)
	}
	fact := func(k int) float64 {
		r := 1.0
		for i := 2; i <= k; i++ {
			r *= float64(i)
		}
		return r
	}
	phi := make([]float64, d)
	for j := 0; j < d; j++ {
		bit := 1 << uint(j)
		for bits := 0; bits < n; bits++ {
			if bits&bit != 0 {
				continue
			}
			size := 0
			for b := bits; b != 0; b &= b - 1 {
				size++
			}
			w := fact(size) * fact(d-size-1) / fact(d)
			phi[j] += w * (vals[bits|bit] - vals[bits])
		}
	}
	return phi
}

func randomTree(tb testing.TB, seed int64, nFeatures, depth, rows int) (*tree.Tree, *dataset.Dataset) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, nFeatures)
	for j := range names {
		names[j] = string(rune('a' + j))
	}
	d := dataset.New(dataset.Regression, names...)
	for i := 0; i < rows; i++ {
		x := make([]float64, nFeatures)
		for j := range x {
			x[j] = rng.Float64()
		}
		y := 0.0
		for j := range x {
			y += float64(j+1) * x[j]
			if j > 0 {
				y += 2 * x[j] * x[j-1]
			}
		}
		d.Add(x, y+rng.NormFloat64()*0.05)
	}
	tr := tree.New(tree.Config{Task: dataset.Regression, MaxDepth: depth, MinLeaf: 2, Seed: seed})
	if err := tr.Fit(d); err != nil {
		tb.Fatal(err)
	}
	return tr, d
}

func TestTreeSHAPMatchesBruteForce(t *testing.T) {
	// The core correctness property: Algorithm 2 == exhaustive Shapley of
	// the path-dependent value function, across many random trees and
	// inputs (including repeated features along paths).
	for seed := int64(0); seed < 15; seed++ {
		tr, d := randomTree(t, seed, 4, 5, 120)
		rng := rand.New(rand.NewSource(seed + 1000))
		for trial := 0; trial < 5; trial++ {
			x := make([]float64, 4)
			for j := range x {
				x[j] = rng.Float64() * 1.2
			}
			want := bruteShapley(tr, x)
			got := make([]float64, len(x))
			shapTree(tr, x, got, make([]pathElem, pathLen(tr.Depth(), len(x))))
			for j := range want {
				if math.Abs(got[j]-want[j]) > 1e-9 {
					t.Fatalf("seed %d trial %d: phi[%d] = %v want %v (leaves=%d depth=%d)\nx=%v",
						seed, trial, j, got[j], want[j], tr.NumLeaves(), tr.Depth(), x)
				}
			}
			_ = d
		}
	}
}

func TestTreeSHAPAdditivity(t *testing.T) {
	tr, _ := randomTree(t, 42, 6, 8, 500)
	e := &Explainer{Model: Single(tr)}
	rng := rand.New(rand.NewSource(43))
	var rows [][]float64
	for i := 0; i < 30; i++ {
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.Float64()
		}
		rows = append(rows, x)
	}
	// A NaN feature must be explained down the branch Predict takes.
	rows = append(rows, withNaN(rows[0])...)
	for _, x := range rows {
		attr, err := e.Explain(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		if ae := attr.AdditivityError(); ae > 1e-9 {
			t.Fatalf("additivity error %v", ae)
		}
		if attr.Value != tr.Predict(x) {
			t.Fatal("Value != tree prediction")
		}
	}
}

func TestTreeSHAPDummyFeature(t *testing.T) {
	// A feature never used by any split must get zero attribution.
	rng := rand.New(rand.NewSource(7))
	d := dataset.New(dataset.Regression, "informative", "dummy")
	for i := 0; i < 300; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64()}
		y := 0.0
		if x[0] > 5 {
			y = 100
		}
		d.Add(x, y)
	}
	tr := tree.New(tree.Config{Task: dataset.Regression, MaxDepth: 4})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	e := &Explainer{Model: Single(tr)}
	attr, err := e.Explain(context.Background(), []float64{8, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if attr.Phi[1] != 0 {
		t.Fatalf("dummy attribution %v", attr.Phi[1])
	}
	if attr.Phi[0] <= 0 {
		t.Fatalf("informative attribution %v should be positive for x above threshold", attr.Phi[0])
	}
}

func TestExpectedValueMatchesCoverAverage(t *testing.T) {
	tr, d := randomTree(t, 5, 3, 6, 400)
	// For a tree fit on the full data, the cover-weighted expectation must
	// equal the mean training prediction (each row lands in its leaf).
	var mean float64
	for _, x := range d.X {
		mean += tr.Predict(x)
	}
	mean /= float64(d.Len())
	if ev := ExpectedValue(tr); math.Abs(ev-mean) > 1e-9 {
		t.Fatalf("ExpectedValue %v != mean train prediction %v", ev, mean)
	}
}

func TestEnsembleLinearity(t *testing.T) {
	// Ensemble attribution must equal the weighted sum of per-tree
	// attributions.
	t1, _ := randomTree(t, 11, 4, 4, 200)
	t2, _ := randomTree(t, 12, 4, 5, 200)
	x := []float64{0.2, 0.8, 0.5, 0.1}
	e1, _ := (&Explainer{Model: Single(t1)}).Explain(context.Background(), x)
	e2, _ := (&Explainer{Model: Single(t2)}).Explain(context.Background(), x)

	combo := comboEnsemble{trees: []*tree.Tree{t1, t2}, w: []float64{0.3, 0.7}, base: 5}
	attr, err := (&Explainer{Model: combo}).Explain(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	for j := range attr.Phi {
		want := 0.3*e1.Phi[j] + 0.7*e2.Phi[j]
		if math.Abs(attr.Phi[j]-want) > 1e-12 {
			t.Fatalf("linearity violated at %d: %v vs %v", j, attr.Phi[j], want)
		}
	}
	if math.Abs(attr.Base-(5+0.3*e1.Base+0.7*e2.Base)) > 1e-12 {
		t.Fatal("ensemble base wrong")
	}
}

type comboEnsemble struct {
	trees []*tree.Tree
	w     []float64
	base  float64
}

func (c comboEnsemble) ComponentTrees() ([]*tree.Tree, []float64, float64) {
	return c.trees, c.w, c.base
}

func TestRandomForestTreeSHAP(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	d := dataset.New(dataset.Regression, "a", "b", "c")
	for i := 0; i < 600; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		d.Add(x, 5*x[0]+x[1]*x[1])
	}
	f := forest.RandomForest{NumTrees: 15, MaxDepth: 6, Task: dataset.Regression, Seed: 21}
	if err := f.Fit(d); err != nil {
		t.Fatal(err)
	}
	e := &Explainer{Model: &f}
	attr, err := e.Explain(context.Background(), []float64{0.9, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if ae := attr.AdditivityError(); ae > 1e-9 {
		t.Fatalf("forest additivity error %v", ae)
	}
	if math.Abs(attr.Value-f.Predict([]float64{0.9, 0.5, 0.5})) > 1e-12 {
		t.Fatal("forest Value mismatch")
	}
	// The dominant feature must receive the largest |phi|.
	if attr.Ranking()[0] != 0 {
		t.Fatalf("expected feature 0 to dominate, ranking %v, phi %v", attr.Ranking(), attr.Phi)
	}
}

func TestGradientBoostingTreeSHAP(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	d := dataset.New(dataset.Regression, "a", "b")
	for i := 0; i < 500; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		d.Add(x, 3*x[0]-x[1])
	}
	g := forest.GradientBoosting{NumRounds: 30, Task: dataset.Regression, Seed: 23}
	if err := g.Fit(d); err != nil {
		t.Fatal(err)
	}
	e := &Explainer{Model: &g}
	x := []float64{0.8, 0.2}
	attr, err := e.Explain(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(attr.Value-g.RawScore(x)) > 1e-9 {
		t.Fatalf("gbt Value %v != raw score %v", attr.Value, g.RawScore(x))
	}
	if ae := attr.AdditivityError(); ae > 1e-9 {
		t.Fatalf("gbt additivity error %v", ae)
	}
}

func TestExplainerErrors(t *testing.T) {
	e := &Explainer{Model: comboEnsemble{}}
	if _, err := e.Explain(context.Background(), []float64{1}); err == nil {
		t.Fatal("expected empty-ensemble error")
	}
	t1, _ := randomTree(t, 30, 3, 3, 100)
	bad := comboEnsemble{trees: []*tree.Tree{t1}, w: []float64{1, 2}}
	if _, err := (&Explainer{Model: bad}).Explain(context.Background(), []float64{1, 2, 3}); err == nil {
		t.Fatal("expected weight-mismatch error")
	}
	if _, err := (&Explainer{Model: Single(t1)}).Explain(context.Background(), []float64{1}); err == nil {
		t.Fatal("expected feature-width error")
	}
}

func TestStumpTree(t *testing.T) {
	// A single-leaf tree attributes nothing.
	d := dataset.New(dataset.Regression, "x")
	for i := 0; i < 10; i++ {
		d.Add([]float64{float64(i)}, 7)
	}
	tr := tree.New(tree.Config{Task: dataset.Regression})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	attr, err := (&Explainer{Model: Single(tr)}).Explain(context.Background(), []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if attr.Phi[0] != 0 || attr.Base != 7 || attr.Value != 7 {
		t.Fatalf("stump attribution %+v", attr)
	}
}

func BenchmarkTreeSHAPDepth8(b *testing.B) {
	tr, _ := randomTree(b, 99, 8, 8, 2000)
	x := make([]float64, 8)
	for j := range x {
		x[j] = 0.5
	}
	phi := make([]float64, len(x))
	path := make([]pathElem, pathLen(tr.Depth(), len(x)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shapTree(tr, x, phi, path)
	}
}

// ─── the allocating reference ───────────────────────────────────────────
//
// refExplain is Explain without the path arena or the per-explainer
// values: every recursion level builds a fresh path slice (refExtend,
// refUnwind), every tree a fresh φ slice, and every call walks each
// tree's expected value again. Explain must reproduce it bit for bit. It
// routes NaN right, as Predict does.

func refExplain(ens Ensemble, x []float64) xai.Attribution {
	trees, weights, base := ens.ComponentTrees()
	phi := make([]float64, len(x))
	baseValue := base
	value := base
	for i, t := range trees {
		w := weights[i]
		tp := refShapTree(t, x)
		for j := range tp {
			phi[j] += w * tp[j]
		}
		baseValue += w * ExpectedValue(t)
		value += w * t.Predict(x)
	}
	return xai.Attribution{Phi: phi, Base: baseValue, Value: value}
}

func refShapTree(t *tree.Tree, x []float64) []float64 {
	phi := make([]float64, len(x))
	if len(t.Nodes) == 0 {
		return phi
	}
	refRecurse(t, x, phi, 0, nil, 1, 1, -1)
	return phi
}

func refRecurse(t *tree.Tree, x []float64, phi []float64, j int, m []pathElem, pz, po float64, pi int) {
	m = refExtend(m, pz, po, pi)
	n := t.Nodes[j]
	if n.IsLeaf() {
		for i := 1; i < len(m); i++ {
			w := unwoundSum(m, i)
			phi[m[i].d] += w * (m[i].o - m[i].z) * n.Value
		}
		return
	}
	hot, cold := n.Left, n.Right
	if !(x[n.Feature] <= n.Threshold) {
		hot, cold = n.Right, n.Left
	}
	iz, io := 1.0, 1.0
	for k := 1; k < len(m); k++ {
		if m[k].d == n.Feature {
			iz, io = m[k].z, m[k].o
			m = refUnwind(m, k)
			break
		}
	}
	rj := n.Cover
	refRecurse(t, x, phi, hot, m, iz*t.Nodes[hot].Cover/rj, io, n.Feature)
	refRecurse(t, x, phi, cold, m, iz*t.Nodes[cold].Cover/rj, 0, n.Feature)
}

func refExtend(m []pathElem, pz, po float64, pi int) []pathElem {
	l := len(m)
	out := make([]pathElem, l+1)
	copy(out, m)
	w := 0.0
	if l == 0 {
		w = 1
	}
	out[l] = pathElem{d: pi, z: pz, o: po, w: w}
	for i := l - 1; i >= 0; i-- {
		out[i+1].w += po * out[i].w * float64(i+1) / float64(l+1)
		out[i].w = pz * out[i].w * float64(l-i) / float64(l+1)
	}
	return out
}

func refUnwind(m []pathElem, i int) []pathElem {
	l := len(m) - 1
	out := make([]pathElem, l)
	copy(out, m[:l])
	oi, zi := m[i].o, m[i].z
	n := m[l].w
	if oi != 0 {
		for j := l - 1; j >= 0; j-- {
			tmp := out[j].w
			out[j].w = n * float64(l+1) / (float64(j+1) * oi)
			n = tmp - out[j].w*zi*float64(l-j)/float64(l+1)
		}
	} else {
		for j := l - 1; j >= 0; j-- {
			out[j].w = out[j].w * float64(l+1) / (zi * float64(l-j))
		}
	}
	for j := i; j < l; j++ {
		out[j].d, out[j].z, out[j].o = m[j+1].d, m[j+1].z, m[j+1].o
	}
	return out
}

// bitDiff describes the first φ, Base or Value whose bits differ between
// got and want, or returns "" when they all match.
func bitDiff(got, want xai.Attribution) string {
	if len(got.Phi) != len(want.Phi) {
		return fmt.Sprintf("len(phi) = %d, want %d", len(got.Phi), len(want.Phi))
	}
	for j := range want.Phi {
		if math.Float64bits(got.Phi[j]) != math.Float64bits(want.Phi[j]) {
			return fmt.Sprintf("phi[%d] = %v, want %v", j, got.Phi[j], want.Phi[j])
		}
	}
	if math.Float64bits(got.Base) != math.Float64bits(want.Base) {
		return fmt.Sprintf("base = %v, want %v", got.Base, want.Base)
	}
	if math.Float64bits(got.Value) != math.Float64bits(want.Value) {
		return fmt.Sprintf("value = %v, want %v", got.Value, want.Value)
	}
	return ""
}

// withNaN returns one copy of x per feature with that feature set to NaN,
// and one copy that is NaN everywhere.
func withNaN(x []float64) [][]float64 {
	var rows [][]float64
	for j := 0; j <= len(x); j++ {
		r := append([]float64(nil), x...)
		for k := range r {
			if k == j || j == len(x) {
				r[k] = math.NaN()
			}
		}
		rows = append(rows, r)
	}
	return rows
}

var (
	zooOnce sync.Once
	zooRF   *forest.RandomForest
	zooGBT  *forest.GradientBoosting
	zooRows [][]float64
	zooErr  error
)

// zooEnsembles fits the served forest and GBT configurations (core's
// model zoo: 40 trees of depth 10, 120 rounds of depth 4) on synthetic
// regression data as wide as the web scenario's 26 features, and returns
// 100 held-out rows.
func zooEnsembles(tb testing.TB) (*forest.RandomForest, *forest.GradientBoosting, [][]float64) {
	tb.Helper()
	zooOnce.Do(func() {
		const width = 26
		rng := rand.New(rand.NewSource(2201))
		row := func() []float64 {
			x := make([]float64, width)
			for j := range x {
				x[j] = rng.Float64()
			}
			return x
		}
		names := make([]string, width)
		for j := range names {
			names[j] = fmt.Sprintf("f%d", j)
		}
		d := dataset.New(dataset.Regression, names...)
		for i := 0; i < 400; i++ {
			x := row()
			y := 4*x[0] + 2*x[1]*x[2] + x[3]*x[3] + rng.NormFloat64()*0.1
			for j := 4; j < width; j++ {
				y += 0.1 * float64(j%3) * x[j]
			}
			d.Add(x, y)
		}
		zooRF = &forest.RandomForest{NumTrees: 40, MaxDepth: 10, MinLeaf: 3, Task: dataset.Regression, Seed: 2}
		if zooErr = zooRF.Fit(d); zooErr != nil {
			return
		}
		zooGBT = &forest.GradientBoosting{NumRounds: 120, LearningRate: 0.1, MaxDepth: 4, Task: dataset.Regression, Seed: 2}
		if zooErr = zooGBT.Fit(d); zooErr != nil {
			return
		}
		for i := 0; i < 100; i++ {
			zooRows = append(zooRows, row())
		}
	})
	if zooErr != nil {
		tb.Fatal(zooErr)
	}
	return zooRF, zooGBT, zooRows
}

func TestArenaParity(t *testing.T) {
	ctx := context.Background()
	rf, gbt, rows := zooEnsembles(t)
	rows = append(rows[:len(rows):len(rows)], withNaN(rows[0])...)
	for _, c := range []struct {
		name string
		ens  Ensemble
	}{{"forest", rf}, {"gbt", gbt}} {
		e := &Explainer{Model: c.ens}
		for i, x := range rows {
			got, err := e.Explain(ctx, x)
			if err != nil {
				t.Fatal(err)
			}
			if msg := bitDiff(got, refExplain(c.ens, x)); msg != "" {
				t.Fatalf("%s row %d: %s", c.name, i, msg)
			}
		}
	}
	// TestTreeSHAPMatchesBruteForce's trees: depth-5 paths over 4
	// features repeat features, so unwind runs.
	for seed := int64(0); seed < 15; seed++ {
		tr, _ := randomTree(t, seed, 4, 5, 120)
		e := &Explainer{Model: Single(tr)}
		rng := rand.New(rand.NewSource(seed + 1000))
		var xs [][]float64
		for trial := 0; trial < 5; trial++ {
			x := make([]float64, 4)
			for j := range x {
				x[j] = rng.Float64() * 1.2
			}
			xs = append(xs, x)
		}
		for i, x := range append(xs, withNaN(xs[0])...) {
			got, err := e.Explain(ctx, x)
			if err != nil {
				t.Fatal(err)
			}
			if msg := bitDiff(got, refExplain(Single(tr), x)); msg != "" {
				t.Fatalf("seed %d row %d: %s", seed, i, msg)
			}
		}
	}
}

// TestConcurrentExplainParity shares one fresh Explainer between
// goroutines whose first calls race on its per-explainer values.
func TestConcurrentExplainParity(t *testing.T) {
	ctx := context.Background()
	rf, _, rows := zooEnsembles(t)
	rows = rows[:16]
	serial := &Explainer{Model: rf}
	want := make([]xai.Attribution, len(rows))
	for i, x := range rows {
		var err error
		if want[i], err = serial.Explain(ctx, x); err != nil {
			t.Fatal(err)
		}
	}
	shared := &Explainer{Model: rf}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for k := range rows {
				i := (g + k) % len(rows)
				got, err := shared.Explain(ctx, rows[i])
				if err != nil {
					t.Error(err)
					return
				}
				if msg := bitDiff(got, want[i]); msg != "" {
					t.Errorf("goroutine %d row %d: %s", g, i, msg)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}

// TestExplainAllocs pins the memory contract: once the per-explainer
// values exist, an explain allocates φ, the per-tree φ buffer, the path
// arena and the ensemble's weight slice, whatever the tree count.
func TestExplainAllocs(t *testing.T) {
	ctx := context.Background()
	rf, gbt, rows := zooEnsembles(t)
	for _, c := range []struct {
		name string
		ens  Ensemble
	}{{"forest", rf}, {"gbt", gbt}} {
		e := &Explainer{Model: c.ens}
		if _, err := e.Explain(ctx, rows[0]); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := e.Explain(ctx, rows[0]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("%s: %v allocs per explain, want <= 4", c.name, allocs)
		}
	}
}

// TestDeepChainMemory explains a 5,000-deep chain over 2 features, the
// shape an imported artifact can take. The arena grows with depth ×
// width (480 KB here); a depth-only bound would need ~400 MB.
func TestDeepChainMemory(t *testing.T) {
	const depth = 5000
	// Node 2k is the chain's split at depth k and node 2k+1 its leaf
	// child; node 2·depth is the last leaf.
	leaf := func(v float64) tree.Node {
		return tree.Node{Feature: tree.Leaf, Left: tree.Leaf, Right: tree.Leaf, Value: v, Cover: 1}
	}
	nodes := make([]tree.Node, 2*depth+1)
	for k := 0; k < depth; k++ {
		nodes[2*k] = tree.Node{Feature: k % 2, Threshold: float64(k%7) / 7, Left: 2*k + 1, Right: 2*k + 2, Cover: float64(depth - k + 1)}
		nodes[2*k+1] = leaf(float64(k % 5))
	}
	nodes[2*depth] = leaf(2.5)
	tr := &tree.Tree{Nodes: nodes}
	x := []float64{0.3, 0.6}
	want := refExplain(Single(tr), x)

	e := &Explainer{Model: Single(tr)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := e.Explain(context.Background(), x)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("one explain allocated %d bytes, want < 1 MiB", grew)
	}
	if msg := bitDiff(got, want); msg != "" {
		t.Fatal(msg)
	}
}
