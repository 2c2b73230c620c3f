// Pooled scratch for the KernelSHAP hot path. One Explain, progressive
// explain or Exact call checks out a single scratch and hands it to every
// stage: the coalition draw, the coalition evaluation (the generic
// evaluator's perturbed-row block or the masked tree evaluator's
// accumulator and divergence-tree storage) and the WLS solve. Under a
// serving workload those are re-allocated for every request; sync.Pool
// recycles them across calls, and one checkout serves every block of the
// progressive estimator.
//
// Zeroing discipline: the mask backing MUST be cleared before a draw
// (drawStorage does) — enumerateCoalitions and sampleCoalitions only set
// true bits (complement masks overwrite fully, primary masks do not), so
// stale bits from a previous draw would corrupt the coalition
// distribution. The first-draw table MUST be cleared before each draw
// (firstDraws does), since 0 marks its empty slots. The treefast
// accumulator MUST be cleared before each evaluation because it is
// written with +=. The generic evaluator's row and prediction buffers,
// the standardized instance, the distinct masks and their values, the
// coalition values and the WLS design are fully overwritten on every use
// and are handed out dirty.
package shap

import (
	"math/rand"
	"sync"

	"nfvxai/internal/mat"
)

// scratch is one call's working storage. Every slice handed out from it
// aliases the pooled storage and is valid only until release; what
// escapes to the caller (phi, the progressive mean and its CI widths) is
// allocated fresh.
type scratch struct {
	// rng is re-seeded on every checkout that samples: Rand.Seed resets
	// its state exactly as rand.NewSource(seed) would, so pooling never
	// changes which coalitions a seed draws.
	rng *rand.Rand

	// The coalition draw: the flat bool backing the masks are carved
	// from, the mask and weight headers, the coalition-value vector, and
	// the sampler's size distribution and permutation.
	maskBacking []bool
	masks       [][]bool
	weights     []float64
	vals        []float64
	sizeW       []float64
	perm        []int

	// Repeated draws: each draw's first occurrence and the hash table
	// that finds it (firstDraws), and the distinct masks with their
	// values, which are what the evaluators see.
	first []int
	table []int
	uniq  [][]bool
	uvals []float64

	// The generic evaluator's block: the flat row backing, the row headers
	// re-carved per call (d varies between models sharing the pool), the
	// prediction vector, the kept-feature list rebuilt per coalition, and
	// the standardized instance for a standardizing wrapper's inner model.
	rowBacking []float64
	rows       [][]float64
	preds      []float64
	kept       []int
	xs         []float64

	// The masked tree evaluator's (background × coalition) accumulator —
	// the single largest buffer of a forest Explain — and its
	// divergence-tree storage, which grows by append to the largest
	// (tree, background) reduction seen.
	acc []float64
	red reduced

	// The WLS design matrix, target and solution.
	a   *mat.Dense
	b   []float64
	sol []float64
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{rng: rand.New(rand.NewSource(0)), a: mat.NewDense(1, 1)}
}}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release returns the scratch to the pool. The caller must be done with
// every slice handed out from it: the next checkout scribbles over them.
func (sc *scratch) release() { scratchPool.Put(sc) }

// drawStorage returns the storage for a draw of n masks over d features:
// n·d cleared mask bools, and empty mask and weight headers of capacity
// n.
func (sc *scratch) drawStorage(n, d int) ([]bool, [][]bool, []float64) {
	if cap(sc.maskBacking) < n*d {
		sc.maskBacking = make([]bool, n*d)
	}
	backing := sc.maskBacking[:n*d]
	clear(backing)
	if cap(sc.masks) < n {
		sc.masks = make([][]bool, 0, n)
	}
	if cap(sc.weights) < n {
		sc.weights = make([]float64, 0, n)
	}
	return backing, sc.masks[:0], sc.weights[:0]
}

// valsFor returns a coalition-value slice of length n. Contents are
// undefined; every evaluator writes all n entries before reading any.
func (sc *scratch) valsFor(n int) []float64 {
	if cap(sc.vals) < n {
		sc.vals = make([]float64, n)
	}
	return sc.vals[:n]
}
