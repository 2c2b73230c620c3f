// Pooled scratch for the LIME hot path. One ExplainDetailed call builds
// four large transients — the (n+1)×(d+1) binary design matrix, the
// perturbation matrix of n+1 hybrid rows, and the target/weight vectors —
// and draws them with a seeded rng. Under a serving workload those
// dominate the allocation profile; sync.Pool recycles them, rng included,
// across calls.
//
// Everything here is handed out dirty: the neighborhood loop writes
// every design-matrix cell, every perturbation-row element, and every
// target and weight before anything reads them, so no zeroing is needed
// on reuse. The rng is re-seeded on every checkout.
package lime

import (
	"math/rand"
	"sync"
)

// neighborhoodBuf holds one call's neighborhood storage: the seeded rng,
// the flat design-matrix backing (wrapped by mat.NewDenseData), the
// targets and kernel weights, the perturbation matrix (flat backing plus
// row headers, re-carved per call because d varies between pooled users),
// and the surrogate coefficient vector (phi copies out of it before
// release).
type neighborhoodBuf struct {
	rng      *rand.Rand
	aData    []float64
	y        []float64
	w        []float64
	zBacking []float64
	zRows    [][]float64
	coef     []float64
}

var neighborhoodPool = sync.Pool{New: func() any {
	return &neighborhoodBuf{rng: rand.New(rand.NewSource(0))}
}}

// getNeighborhood returns storage for rows perturbed samples over d
// features (the design matrix gets d+1 columns for the intercept) and an
// rng seeded with seed. Rand.Seed resets the stream exactly as a fresh
// rand.NewSource(seed) would, so pooling never changes a seed's draws.
func getNeighborhood(rows, d int, seed int64) *neighborhoodBuf {
	b := neighborhoodPool.Get().(*neighborhoodBuf)
	b.rng.Seed(seed)
	if cap(b.aData) < rows*(d+1) {
		b.aData = make([]float64, rows*(d+1))
	}
	b.aData = b.aData[:rows*(d+1)]
	if cap(b.y) < rows {
		b.y = make([]float64, rows)
	}
	b.y = b.y[:rows]
	if cap(b.w) < rows {
		b.w = make([]float64, rows)
	}
	b.w = b.w[:rows]
	if cap(b.zBacking) < rows*d {
		b.zBacking = make([]float64, rows*d)
	}
	b.zBacking = b.zBacking[:rows*d]
	if cap(b.zRows) < rows {
		b.zRows = make([][]float64, rows)
	}
	b.zRows = b.zRows[:rows]
	for i := range b.zRows {
		b.zRows[i] = b.zBacking[i*d : (i+1)*d]
	}
	if cap(b.coef) < d+1 {
		b.coef = make([]float64, d+1)
	}
	b.coef = b.coef[:d+1]
	return b
}

// release returns the buffer to the pool. The caller must be done with
// the design matrix and every slice handed out: they alias the pooled
// storage and will be scribbled over by the next call.
func (b *neighborhoodBuf) release() { neighborhoodPool.Put(b) }
