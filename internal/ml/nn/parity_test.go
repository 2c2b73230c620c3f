package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"nfvxai/internal/dataset"
	"nfvxai/internal/sched"
)

// parityInputs are the values the batch paths must carry exactly as
// Predict does: NaN, both infinities, negative zero, the smallest
// subnormal and the largest magnitudes a sum can overflow from.
var parityInputs = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, 1e308, -1e308}

// sameBits reports whether got and want are one float64, bit for bit.
// Under the race detector two NaNs also match: the instrumented build
// allocates registers differently, and the compiler may then swap the
// operands of a commutative multiply or add in forward, which decides
// which NaN payload a sum keeps. The kernel follows the normal build's
// operand order, which this test pins down.
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) ||
		raceBuild && math.IsNaN(got) && math.IsNaN(want)
}

// raceBuild reports whether the test binary was built with -race.
var raceBuild = func() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}()

// parityNet fits a small network of the given shape on 11 inputs, an
// input width that is a multiple of neither 4 nor 8.
func parityNet(t *testing.T, hidden []int, act Activation, task dataset.Task) *MLP {
	t.Helper()
	const in = 11
	rng := rand.New(rand.NewSource(int64(len(hidden))*31 + int64(act)*7 + int64(task)))
	names := make([]string, in)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	d := dataset.New(task, names...)
	for i := 0; i < 64; i++ {
		x := make([]float64, in)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		y := x[0] - 2*x[3] + x[5]*x[7]
		if task == dataset.Classification {
			y = 0
			if x[0]+x[1] > 0 {
				y = 1
			}
		}
		d.Add(x, y)
	}
	m := &MLP{Hidden: hidden, Act: act, Epochs: 3, Task: task, Seed: 5}
	if err := m.Fit(d); err != nil {
		t.Fatal(err)
	}
	return m
}

// parityRows draws n rows of m's width, mostly normal values with one
// special value in about one entry in five.
func parityRows(m *MLP, n int, rng *rand.Rand) [][]float64 {
	X := make([][]float64, n)
	for r := range X {
		x := make([]float64, m.InputDim())
		for i := range x {
			if rng.Intn(5) == 0 {
				x[i] = parityInputs[rng.Intn(len(parityInputs))]
			} else {
				x[i] = rng.NormFloat64() * 3
			}
		}
		X[r] = x
	}
	return X
}

// poison overwrites weights as a hostile artifact might: every fifth
// with a quiet NaN whose payload is its own (math.NaN's is 1), and a
// sprinkling of infinities and signalling NaNs. Biases stay finite, so
// a sum's first NaN can come from a product of a NaN input and a NaN
// weight, where the multiply's operand order picks the payload.
func poison(m *MLP) {
	for l, w := range m.weights {
		for k := range w[:m.dims[l]*m.dims[l+1]] {
			switch {
			case k%5 == 2:
				w[k] = math.Float64frombits(0x7ff8000000000000 | uint64(k+2))
			case k%13 == 6:
				w[k] = math.Inf(1 - 2*(k%2))
			case k%17 == 8:
				w[k] = math.Float64frombits(0x7ff4000000000000 | uint64(k+2))
			}
		}
	}
}

// TestBlockTileParity holds both batch paths of the MLP to Predict bit
// for bit: the AVX2 block path (predictBlocks) and the portable tile
// path (predictTiles), each called directly on the chunks of a sched
// dispatch, over hidden widths that are not multiples of 4 or 8, Tanh,
// classification and three hidden layers, batch sizes on both sides of
// the 4-row block and the 512-row chunk, and inputs that hold NaN,
// infinities, −0, a subnormal and ±1e308. Each chunk takes its scratch from chunkPool, as predictChunk
// does, so it inherits buffers that earlier nets of other widths left
// behind, and every slot of them is first set to NaN: a path that read
// scratch before writing it would not match Predict.
func TestBlockTileParity(t *testing.T) {
	// Two workers at least, so batches of 1024 rows or more are split
	// into chunks and dispatched (see TestPredictBatchParity).
	if sched.Default().Workers() < 2 {
		sched.Configure(2, false)
	}
	nets := []struct {
		name   string
		hidden []int
		act    Activation
		task   dataset.Task
		poison bool
	}{
		{"48-24", []int{48, 24}, ReLU, dataset.Regression, false},
		{"12-9-5", []int{12, 9, 5}, ReLU, dataset.Regression, false},
		{"12-6", []int{12, 6}, ReLU, dataset.Regression, false},
		{"6", []int{6}, ReLU, dataset.Regression, false},
		{"3", []int{3}, ReLU, dataset.Regression, false},
		{"tanh-48-24", []int{48, 24}, Tanh, dataset.Regression, false},
		{"tanh-12-9-5", []int{12, 9, 5}, Tanh, dataset.Regression, false},
		{"classify-16-8", []int{16, 8}, ReLU, dataset.Classification, false},
		{"classify-tanh-9", []int{9}, Tanh, dataset.Classification, false},
		// A decoded artifact can carry any weight: NaNs whose payloads
		// differ from the inputs' and infinities, so the order of each
		// multiply's and add's operands decides which NaN survives.
		{"poisoned-tanh-12-9", []int{12, 9}, Tanh, dataset.Regression, true},
	}
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 511, 513, 2051}
	paths := []struct {
		name string
		run  func(m *MLP, sc *chunkScratch, X [][]float64, out []float64)
	}{
		{"tiles", (*MLP).predictTiles},
		{"blocks", (*MLP).predictBlocks},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			if path.name == "blocks" && !hasAVX2 {
				t.Skip("no AVX2 on this CPU (or not amd64): PredictBatch takes the tile path here")
			}
			for _, net := range nets {
				m := parityNet(t, net.hidden, net.act, net.task)
				if net.poison {
					poison(m)
				}
				rng := rand.New(rand.NewSource(int64(len(net.name))))
				for _, n := range sizes {
					X := parityRows(m, n, rng)
					got := make([]float64, n)
					sched.ParallelFor(n, batchChunk, func(lo, hi int) {
						sc := chunkPool.Get().(*chunkScratch)
						defer chunkPool.Put(sc)
						for _, buf := range [][]float64{sc.cur, sc.nxt, sc.panel} {
							buf = buf[:cap(buf)]
							for i := range buf {
								buf[i] = math.NaN()
							}
						}
						path.run(m, sc, X[lo:hi], got[lo:hi])
					})
					for i, x := range X {
						if want := m.Predict(x); !sameBits(got[i], want) {
							t.Fatalf("%s/%d rows: row %d: %s %v (%#x) != Predict %v (%#x)",
								net.name, n, i, path.name, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
						}
					}
				}
			}
		})
	}
}

// TestOneChunkBatchNoAllocs pins what calling predictChunk directly
// buys: a batch of fewer than two chunks (the standardizing wrapper hands
// over 512 rows at a time) runs on the calling goroutine on a pooled
// scratch and, once the pool holds one, allocates nothing. Under -race a
// sync.Pool drops a share of its puts, so the check needs a normal build.
func TestOneChunkBatchNoAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("under -race a sync.Pool drops a share of its puts")
	}
	m := parityNet(t, []int{48, 24}, ReLU, dataset.Regression)
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, batchChunk, 2*batchChunk - 1} {
		X := parityRows(m, n, rng)
		out := make([]float64, n)
		m.PredictBatch(X, out) // warm-up: fills the pool
		if avg := testing.AllocsPerRun(50, func() { m.PredictBatch(X, out) }); avg != 0 {
			t.Errorf("a %d-row PredictBatch allocates %.1f objects/op, want 0", n, avg)
		}
	}
}

// TestLayerBlockParity checks every output of every layer of the block
// path, where TestBlockTileParity sees only the network's output: a
// sum's first NaN decides its payload, so a later output's NaN can be
// hidden behind an earlier one's by the next layer. Each layer runs
// layerBlock on four rows of forward's activations and must reproduce
// forward's next activations bit for bit.
func TestLayerBlockParity(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 on this CPU (or not amd64): PredictBatch takes the tile path here")
	}
	for _, act := range []Activation{ReLU, Tanh} {
		for _, poisoned := range []bool{false, true} {
			// 48, 19 and 12 outputs: whole groups of eight, and groups
			// with three and four outputs left over for Go.
			m := parityNet(t, []int{48, 19, 12}, act, dataset.Regression)
			if poisoned {
				poison(m)
			}
			rng := rand.New(rand.NewSource(int64(act) + 2))
			X := parityRows(m, 256, rng)
			acts := make([][][]float64, len(X))
			for r, x := range X {
				acts[r] = m.newActivations()
				m.forward(x, acts[r])
			}
			src, dst := make([]float64, 4*48), make([]float64, 4*48)
			for r0 := 0; r0 < len(X); r0 += 4 {
				for l, w := range m.weights {
					in, out := m.dims[l], m.dims[l+1]
					for r := 0; r < 4; r++ {
						for i, v := range acts[r0+r][l] {
							src[i*4+r] = v
						}
					}
					m.layerBlock(src, dst, w, in, out, l == len(m.weights)-1)
					for r := 0; r < 4; r++ {
						for j, want := range acts[r0+r][l+1] {
							if got := dst[j*4+r]; !sameBits(got, want) {
								t.Fatalf("act %d poisoned %v: row %d layer %d output %d: block %v (%#x) != forward %v (%#x)",
									act, poisoned, r0+r, l, j, got, math.Float64bits(got), want, math.Float64bits(want))
							}
						}
					}
				}
			}
		}
	}
}
