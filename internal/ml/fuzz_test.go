package ml

import (
	"bytes"
	"math"
	"testing"

	"nfvxai/internal/dataset"
	"nfvxai/internal/ml/forest"
	"nfvxai/internal/ml/linear"
	"nfvxai/internal/ml/nn"
	"nfvxai/internal/ml/tree"
)

// FuzzDecodeModel throws hostile artifact bytes at the model codec. The
// decode-safety contract (PR 5, machine-enforced by nfvlint's
// boundedmake): arbitrary input must produce a typed error or a model
// whose whole Predict surface is safe — never a panic and never an
// allocation beyond the bytes present. Seeds are real encoded artifacts
// of every model kind, so the fuzzer starts inside the format and
// mutates envelopes, counts and node graphs rather than flailing at
// magic-byte checks.
func FuzzDecodeModel(f *testing.F) {
	reg := synthDataset(dataset.Regression, 60, 11)
	cls := synthDataset(dataset.Classification, 60, 12)
	seeds := []struct {
		m  Trainable
		ds *dataset.Dataset
	}{
		{&linear.Regression{Ridge: 1e-3}, reg},
		{&linear.Logistic{LR: 0.05, Epochs: 8, BatchSize: 32, Seed: 3}, cls},
		{tree.New(tree.Config{Task: dataset.Regression, MaxDepth: 4, MinLeaf: 3, Seed: 5}), reg},
		{&forest.RandomForest{NumTrees: 3, MaxDepth: 4, MinLeaf: 2, Task: dataset.Regression, Seed: 7}, reg},
		{&forest.GradientBoosting{NumRounds: 4, LearningRate: 0.1, MaxDepth: 3, Task: dataset.Classification, Seed: 9}, cls},
		{&nn.MLP{Hidden: []int{6}, Epochs: 4, BatchSize: 32, Task: dataset.Regression, Seed: 13}, reg},
	}
	for _, s := range seeds {
		if err := s.m.Fit(s.ds); err != nil {
			f.Fatalf("fit seed model: %v", err)
		}
		blob, err := EncodeModel(s.m)
		if err != nil {
			f.Fatalf("encode seed model: %v", err)
		}
		f.Add(blob)
		// A truncated and a bit-flipped variant steer mutation toward the
		// sticky-error and validation paths.
		f.Add(blob[:len(blob)/2])
		flip := bytes.Clone(blob)
		flip[len(flip)/3] ^= 0x40
		f.Add(flip)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeModel(data)
		if err != nil {
			return // typed rejection is the expected path for garbage
		}
		// A decode that claims success must yield a fully servable model:
		// the width is declared, prediction cannot panic, and the model
		// re-encodes (the registry persists decoded models on import).
		w, ok := InputWidth(m)
		if !ok || w < 0 {
			t.Fatalf("decoded model has no usable input width (%d, %v)", w, ok)
		}
		X := fuzzRows(w)
		want := make([]float64, len(X))
		for r, x := range X {
			want[r] = m.Predict(x)
		}
		// The batch path must reproduce Predict bit for bit on the
		// decoded model too (5 rows: one full 4-row MLP block and a
		// short one).
		if bp, ok := m.(BatchPredictor); ok {
			got := make([]float64, len(X))
			bp.PredictBatch(X, got)
			for r := range X {
				if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
					t.Fatalf("%T row %d: PredictBatch %v (%#x) != Predict %v (%#x)",
						m, r, got[r], math.Float64bits(got[r]), want[r], math.Float64bits(want[r]))
				}
			}
		}
		if _, err := EncodeModel(m); err != nil {
			t.Fatalf("decoded model does not re-encode: %v", err)
		}
	})
}

// fuzzRows builds the five rows FuzzDecodeModel predicts: zeros, ones,
// a signed ramp, the special values (NaN, ±Inf, −0, the smallest
// subnormal, ±1e308) in turn, and large negatives.
func fuzzRows(w int) [][]float64 {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, 1e308, -1e308}
	X := make([][]float64, 5)
	for r := range X {
		X[r] = make([]float64, w)
	}
	for i := 0; i < w; i++ {
		X[1][i] = 1
		X[2][i] = float64(i+1) * 0.75 * float64(1-2*(i%2))
		X[3][i] = specials[i%len(specials)]
		X[4][i] = -1e3 * float64(i+1)
	}
	return X
}
