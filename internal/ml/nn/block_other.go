//go:build !amd64

package nn

// hasAVX2 is false off amd64: PredictBatch always takes the tile path.
const hasAVX2 = false

func blockLayer(dst, x, w, bias []float64, out int, relu bool) {
	panic("nn: no AVX2 layer kernel on this architecture")
}
