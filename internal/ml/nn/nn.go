// Package nn implements a multilayer perceptron trained with mini-batch
// Adam: linear output + squared loss for regression, sigmoid output +
// cross-entropy for binary classification. It is the "black box" model of
// the paper — the one whose predictions most need post-hoc explanation.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"nfvxai/internal/dataset"
	"nfvxai/internal/sched"
)

// Activation selects the hidden-layer nonlinearity.
type Activation int

const (
	// ReLU is max(0, x).
	ReLU Activation = iota
	// Tanh is the hyperbolic tangent.
	Tanh
)

// MLP is a fully connected feed-forward network.
type MLP struct {
	// Hidden lists hidden-layer widths (default [32, 16]).
	Hidden []int
	// Act is the hidden activation (default ReLU).
	Act Activation
	// LR is the Adam step size (default 0.01).
	LR float64
	// Epochs is the number of passes (default 200).
	Epochs int
	// BatchSize is the mini-batch size (default 32).
	BatchSize int
	// L2 is the weight decay coefficient.
	L2 float64
	// Task selects the output unit and loss.
	Task dataset.Task
	// Seed drives initialization and shuffling.
	Seed int64

	// weights[l] is an (in+1)×out matrix (last row is the bias) mapping
	// layer l activations to layer l+1 pre-activations.
	weights [][]float64
	dims    []int // layer widths including input and output
}

// Fit trains the network on d, replacing any previous parameters.
func (m *MLP) Fit(d *dataset.Dataset) error {
	n, p := d.Len(), d.NumFeatures()
	if n == 0 || p == 0 {
		return errors.New("nn: empty dataset")
	}
	hidden := m.Hidden
	if len(hidden) == 0 {
		hidden = []int{32, 16}
	}
	for _, h := range hidden {
		if h <= 0 {
			return fmt.Errorf("nn: invalid hidden width %d", h)
		}
	}
	lr := m.LR
	if lr == 0 {
		lr = 0.01
	}
	epochs := m.Epochs
	if epochs == 0 {
		epochs = 200
	}
	batch := m.BatchSize
	if batch <= 0 || batch > n {
		batch = 32
		if batch > n {
			batch = n
		}
	}

	m.dims = append(append([]int{p}, hidden...), 1)
	rng := rand.New(rand.NewSource(m.Seed + 0x1F123BB5))
	m.weights = make([][]float64, len(m.dims)-1)
	for l := range m.weights {
		in, out := m.dims[l], m.dims[l+1]
		w := make([]float64, (in+1)*out)
		// He/Xavier-style initialization.
		scale := math.Sqrt(2 / float64(in))
		if m.Act == Tanh {
			scale = math.Sqrt(1 / float64(in))
		}
		for i := 0; i < in*out; i++ {
			w[i] = rng.NormFloat64() * scale
		}
		m.weights[l] = w
	}

	// Adam state.
	mw := make([][]float64, len(m.weights))
	vw := make([][]float64, len(m.weights))
	gw := make([][]float64, len(m.weights))
	for l := range m.weights {
		mw[l] = make([]float64, len(m.weights[l]))
		vw[l] = make([]float64, len(m.weights[l]))
		gw[l] = make([]float64, len(m.weights[l]))
	}
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	step := 0

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	acts := m.newActivations()
	deltas := m.newDeltas()
	for e := 0; e < epochs; e++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < n; start += batch {
			end := start + batch
			if end > n {
				end = n
			}
			for l := range gw {
				for i := range gw[l] {
					gw[l][i] = 0
				}
			}
			for _, i := range order[start:end] {
				m.backprop(d.X[i], d.Y[i], acts, deltas, gw)
			}
			inv := 1 / float64(end-start)
			step++
			c1 := 1 - math.Pow(beta1, float64(step))
			c2 := 1 - math.Pow(beta2, float64(step))
			for l := range m.weights {
				w := m.weights[l]
				for i := range w {
					g := gw[l][i]*inv + m.L2*w[i]
					mw[l][i] = beta1*mw[l][i] + (1-beta1)*g
					vw[l][i] = beta2*vw[l][i] + (1-beta2)*g*g
					w[i] -= lr * (mw[l][i] / c1) / (math.Sqrt(vw[l][i]/c2) + eps)
				}
			}
		}
	}
	return nil
}

func (m *MLP) newActivations() [][]float64 {
	acts := make([][]float64, len(m.dims))
	for l, w := range m.dims {
		acts[l] = make([]float64, w)
	}
	return acts
}

func (m *MLP) newDeltas() [][]float64 {
	deltas := make([][]float64, len(m.dims))
	for l, w := range m.dims {
		deltas[l] = make([]float64, w)
	}
	return deltas
}

// forward fills acts with layer activations for input x and returns the
// raw output (pre-link).
func (m *MLP) forward(x []float64, acts [][]float64) float64 {
	copy(acts[0], x)
	for l, w := range m.weights {
		in, out := m.dims[l], m.dims[l+1]
		src := acts[l]
		dst := acts[l+1]
		last := l == len(m.weights)-1
		for j := 0; j < out; j++ {
			z := w[in*out+j] // bias row
			for i := 0; i < in; i++ {
				z += src[i] * w[i*out+j]
			}
			if last {
				dst[j] = z
			} else {
				dst[j] = m.activate(z)
			}
		}
	}
	return acts[len(acts)-1][0]
}

func (m *MLP) activate(z float64) float64 {
	if m.Act == Tanh {
		return math.Tanh(z)
	}
	if z > 0 {
		return z
	}
	return 0
}

// activateGrad returns the derivative given the *activation value* a.
func (m *MLP) activateGrad(a float64) float64 {
	if m.Act == Tanh {
		return 1 - a*a
	}
	if a > 0 {
		return 1
	}
	return 0
}

// backprop accumulates gradients for one example into gw.
func (m *MLP) backprop(x []float64, y float64, acts, deltas [][]float64, gw [][]float64) {
	raw := m.forward(x, acts)
	// Output delta: both squared loss (linear output) and cross-entropy
	// (sigmoid output) reduce to (prediction − target) on the raw score.
	var outDelta float64
	if m.Task == dataset.Classification {
		outDelta = sigmoid(raw) - y
	} else {
		outDelta = raw - y
	}
	L := len(m.weights)
	deltas[L][0] = outDelta
	for l := L - 1; l >= 0; l-- {
		in, out := m.dims[l], m.dims[l+1]
		w := m.weights[l]
		src := acts[l]
		dl := deltas[l+1]
		g := gw[l]
		for j := 0; j < out; j++ {
			dj := dl[j]
			if dj == 0 {
				continue
			}
			for i := 0; i < in; i++ {
				g[i*out+j] += src[i] * dj
			}
			g[in*out+j] += dj
		}
		if l > 0 {
			prev := deltas[l]
			for i := 0; i < in; i++ {
				var s float64
				for j := 0; j < out; j++ {
					s += w[i*out+j] * dl[j]
				}
				prev[i] = s * m.activateGrad(src[i])
			}
		}
	}
}

// Predict implements ml.Predictor: the regression value, or P(y=1|x) for
// classification.
func (m *MLP) Predict(x []float64) float64 {
	if len(m.weights) == 0 {
		panic("nn: Predict before Fit")
	}
	if len(x) != m.dims[0] {
		panic(fmt.Sprintf("nn: input width %d != %d", len(x), m.dims[0]))
	}
	acts := m.newActivations()
	raw := m.forward(x, acts)
	if m.Task == dataset.Classification {
		return sigmoid(raw)
	}
	return raw
}

// batchChunk is the fewest rows either batch path hands a sched worker.
// The tile path also sweeps each layer over at most this many rows, so
// its two activation buffers stay cache-resident regardless of batch
// size.
const batchChunk = 512

// chunkScratch is one chunk's working memory: the two activation buffers
// both batch paths swap between, and the tile path's transposed weight
// panel. predictChunk checks one out of chunkPool per chunk, so
// steady-state batches stop allocating. Contents are undefined on
// checkout; each path overwrites what it reads.
type chunkScratch struct{ cur, nxt, panel []float64 }

var chunkPool = sync.Pool{New: func() any { return new(chunkScratch) }}

// floats returns buf resized to n, reallocating only when it is too
// small.
func floats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// PredictBatch implements ml.BatchPredictor. Its outputs are
// bit-identical to Predict's whatever the batch holds: on amd64 with
// AVX2 it runs the block path (predictBlocks), elsewhere the tile path
// (predictTiles), and both form every sum exactly as forward does.
// Chunks are distributed over the shared sched pool. A batch of fewer
// than two chunks, which ParallelFor would run inline anyway (the
// standardizing wrapper hands over 512 rows at a time), calls
// predictChunk directly, with no closure to escape to the heap: such a
// call allocates nothing.
func (m *MLP) PredictBatch(X [][]float64, out []float64) {
	if len(m.weights) == 0 {
		panic("nn: PredictBatch before Fit")
	}
	if len(X) < 2*batchChunk {
		m.predictChunk(X, out)
		return
	}
	sched.ParallelFor(len(X), batchChunk, func(lo, hi int) { m.predictChunk(X[lo:hi], out[lo:hi]) })
}

// predictChunk runs one sched chunk through the block or the tile path
// on a scratch checked out of chunkPool.
func (m *MLP) predictChunk(X [][]float64, out []float64) {
	sc := chunkPool.Get().(*chunkScratch)
	defer chunkPool.Put(sc)
	if hasAVX2 {
		m.predictBlocks(sc, X, out)
		return
	}
	m.predictTiles(sc, X, out)
}

// predictBlocks walks 4-row blocks through every layer. A block is
// stored feature-major (blk[i*4+r] is input i of row r) so that one YMM
// lane holds one row: the AVX2 kernel (blockLayer) computes each layer's
// outputs eight at a time, reading the weights where they lie, and the
// outputs left over (such as the final 1-wide layer) finish in Go on the
// same block, each lane's sum formed as forward forms it. Tanh, the
// output link and a short last block's padding (its last row repeated,
// the padded lanes dropped) stay in Go. The two block buffers come from
// the chunk's scratch.
func (m *MLP) predictBlocks(sc *chunkScratch, X [][]float64, out []float64) {
	maxDim := 0
	for _, w := range m.dims {
		maxDim = max(maxDim, w)
	}
	sc.cur, sc.nxt = floats(sc.cur, 4*maxDim), floats(sc.nxt, 4*maxDim)
	cur, nxt := sc.cur, sc.nxt
	for r0 := 0; r0 < len(X); r0 += 4 {
		rows := min(4, len(X)-r0)
		for r := 0; r < 4; r++ {
			x := X[r0+min(r, rows-1)]
			if len(x) != m.dims[0] {
				panic(fmt.Sprintf("nn: input width %d != %d", len(x), m.dims[0]))
			}
			for i, v := range x {
				cur[i*4+r] = v
			}
		}
		for l, w := range m.weights {
			m.layerBlock(cur, nxt, w, m.dims[l], m.dims[l+1], l == len(m.weights)-1)
			cur, nxt = nxt, cur
		}
		for r := 0; r < rows; r++ {
			raw := cur[r]
			if m.Task == dataset.Classification {
				raw = sigmoid(raw)
			}
			out[r0+r] = raw
		}
	}
}

// layerBlock advances the 4-row block src through layer w (in inputs,
// out outputs) into dst, both feature-major. It slices every argument
// of the kernel to the exact span the kernel touches, so a broken shape
// panics here rather than reading out of bounds in assembly.
func (m *MLP) layerBlock(src, dst, w []float64, in, out int, last bool) {
	src, dst = src[:4*in], dst[:4*out]
	bias := w[in*out : (in+1)*out]
	tanh := !last && m.Act == Tanh
	g := out &^ 7
	if g > 0 {
		blockLayer(dst[:4*g], src, w[:(in-1)*out+g], bias[:g], out, !last && !tanh)
		if tanh {
			for k, z := range dst[:4*g] {
				dst[k] = math.Tanh(z)
			}
		}
	}
	for j := g; j < out; j++ {
		b := bias[j]
		z0, z1, z2, z3 := b, b, b, b
		for i := 0; i < in; i++ {
			x, wij := src[i*4:i*4+4], w[i*out+j]
			z0 += x[0] * wij
			z1 += x[1] * wij
			z2 += x[2] * wij
			z3 += x[3] * wij
		}
		if !last {
			z0, z1, z2, z3 = m.activate(z0), m.activate(z1), m.activate(z2), m.activate(z3)
		}
		dst[j*4], dst[j*4+1], dst[j*4+2], dst[j*4+3] = z0, z1, z2, z3
	}
}

// predictTiles is the portable layer-wise forward pass: instead of
// allocating a fresh activation stack per row (what Predict does), each
// chunk advances through each weight matrix together over two reused
// activation buffers. Within a layer, rows go through a register tile
// four at a time (forwardTile): the layer's weights are transposed into
// a panel so that each output's weights are contiguous, and each weight
// load feeds four independent sums instead of one sum whose every add
// waits on the previous one. Every sum is formed exactly as forward
// forms it — bias first, then inputs in ascending order, with the same
// z += x*w statement — and the rows%4 tail runs forward's loop, so
// outputs stay bit-identical to Predict. The activation buffers and the
// panel come from the chunk's scratch. Rows are independent and each
// chunk writes only its own out range, so the result does not depend on
// the worker count.
func (m *MLP) predictTiles(sc *chunkScratch, X [][]float64, out []float64) {
	maxDim, maxPanel := 0, 0
	for l, w := range m.dims {
		maxDim = max(maxDim, w)
		if l > 0 {
			maxPanel = max(maxPanel, m.dims[l-1]*w)
		}
	}
	sc.cur, sc.nxt = floats(sc.cur, batchChunk*maxDim), floats(sc.nxt, batchChunk*maxDim)
	sc.panel = floats(sc.panel, maxPanel)
	cur, nxt, panel := sc.cur, sc.nxt, sc.panel
	for lo := 0; lo < len(X); lo += batchChunk {
		hi := min(lo+batchChunk, len(X))
		rows := hi - lo
		for r := 0; r < rows; r++ {
			x := X[lo+r]
			if len(x) != m.dims[0] {
				panic(fmt.Sprintf("nn: input width %d != %d", len(x), m.dims[0]))
			}
			copy(cur[r*maxDim:], x)
		}
		for l, w := range m.weights {
			in, outW := m.dims[l], m.dims[l+1]
			last := l == len(m.weights)-1
			wt := panel[:in*outW]
			for i := 0; i < in; i++ {
				for j := 0; j < outW; j++ {
					wt[j*in+i] = w[i*outW+j]
				}
			}
			r := 0
			for ; r+4 <= rows; r += 4 {
				m.forwardTile(cur[r*maxDim:], nxt[r*maxDim:], maxDim, in, wt, w[in*outW:], last)
			}
			for ; r < rows; r++ {
				src := cur[r*maxDim : r*maxDim+in]
				dst := nxt[r*maxDim : r*maxDim+outW]
				for j := 0; j < outW; j++ {
					z := w[in*outW+j] // bias row
					for i := 0; i < in; i++ {
						z += src[i] * w[i*outW+j]
					}
					if last {
						dst[j] = z
					} else {
						dst[j] = m.activate(z)
					}
				}
			}
			cur, nxt = nxt, cur
		}
		for r := 0; r < rows; r++ {
			raw := cur[r*maxDim]
			if m.Task == dataset.Classification {
				raw = sigmoid(raw)
			}
			out[lo+r] = raw
		}
	}
}

// forwardTile advances four rows, stride apart in src, through one layer
// into the rows of dst at the same stride. wt is the layer's
// transposed weight panel, output j's in weights at wt[j*in:], and bias
// its bias row. Each row's sum is formed as forward forms it, so the
// tile's outputs are bit-identical to forward's.
func (m *MLP) forwardTile(src, dst []float64, stride, in int, wt, bias []float64, last bool) {
	s0 := src[:in]
	s1 := src[stride:][:in]
	s2 := src[2*stride:][:in]
	s3 := src[3*stride:][:in]
	for j, b := range bias {
		col := wt[j*in:][:in]
		z0, z1, z2, z3 := b, b, b, b
		for i, w := range col {
			z0 += s0[i] * w
			z1 += s1[i] * w
			z2 += s2[i] * w
			z3 += s3[i] * w
		}
		if !last {
			z0, z1, z2, z3 = m.activate(z0), m.activate(z1), m.activate(z2), m.activate(z3)
		}
		dst[j] = z0
		dst[stride+j] = z1
		dst[2*stride+j] = z2
		dst[3*stride+j] = z3
	}
}

// Gradient returns ∂Predict/∂x at x — for classification the gradient of
// the output probability. It backpropagates a unit output delta down to
// the input layer; gradient-based explainers (integrated gradients,
// saliency) consume this.
func (m *MLP) Gradient(x []float64) []float64 {
	if len(m.weights) == 0 {
		panic("nn: Gradient before Fit")
	}
	if len(x) != m.dims[0] {
		panic(fmt.Sprintf("nn: input width %d != %d", len(x), m.dims[0]))
	}
	acts := m.newActivations()
	raw := m.forward(x, acts)
	deltas := m.newDeltas()
	L := len(m.weights)
	if m.Task == dataset.Classification {
		p := sigmoid(raw)
		deltas[L][0] = p * (1 - p)
	} else {
		deltas[L][0] = 1
	}
	for l := L - 1; l >= 0; l-- {
		in, out := m.dims[l], m.dims[l+1]
		w := m.weights[l]
		src := acts[l]
		dl := deltas[l+1]
		prev := deltas[l]
		for i := 0; i < in; i++ {
			var s float64
			for j := 0; j < out; j++ {
				s += w[i*out+j] * dl[j]
			}
			if l > 0 {
				s *= m.activateGrad(src[i])
			}
			prev[i] = s
		}
	}
	return append([]float64(nil), deltas[0]...)
}

// InputDim returns the input width the fitted network expects (0 before
// Fit). The artifact plane validates loaded models against their
// embedded dataset schema with this.
func (m *MLP) InputDim() int {
	if len(m.dims) == 0 {
		return 0
	}
	return m.dims[0]
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}
