package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"nfvxai/internal/nfv/telemetry"
	"nfvxai/internal/sched"
)

// kernelRows builds n rows the way KernelSHAP's perturbation matrix
// does: each row takes the explained instance x on a random coalition of
// features and a background row on the rest.
func kernelRows(rng *rand.Rand, x []float64, background [][]float64, n int) [][]float64 {
	rows := make([][]float64, n)
	for r := range rows {
		bg := background[r%len(background)]
		z := make([]float64, len(x))
		for j := range z {
			if rng.Intn(2) == 0 {
				z[j] = x[j]
			} else {
				z[j] = bg[j]
			}
		}
		rows[r] = z
	}
	return rows
}

// TestScaledModelPredictBatch checks the standardizing wrapper's batch
// path against its Predict, bit for bit, on the MLP and linear pipelines
// at sizes around the MLP's 4-row tile and the 512-row chunk, and that a
// KernelSHAP-sized batch allocates per chunk rather than per row.
func TestScaledModelPredictBatch(t *testing.T) {
	// The pool is sized at first use, at GOMAXPROCS=1 under -cpu 1,4;
	// give it workers so the larger batches are dispatched in chunks.
	if sched.Default().Workers() < 2 {
		sched.Configure(2, false)
	}
	ds, err := WebScenario().GenerateDataset(21, 1, telemetry.TargetBottleneckUtil)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []ModelKind{ModelMLP, ModelLinear} {
		p, err := NewPipeline(kind, ds, 22)
		if err != nil {
			t.Fatal(err)
		}
		sm, ok := p.Model.(*scaledModel)
		if !ok {
			t.Fatalf("%v: model is %T, want *scaledModel", kind, p.Model)
		}
		rng := rand.New(rand.NewSource(5))
		X := kernelRows(rng, p.Test.X[0], p.Background, 2051)
		for _, n := range []int{1, 3, 5, 511, 513, 1027, 2051} {
			got := make([]float64, n)
			sm.PredictBatch(X[:n], got)
			for i, x := range X[:n] {
				if want := sm.Predict(x); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%v/%d rows: row %d: PredictBatch %v != Predict %v", kind, n, i, got[i], want)
				}
			}
		}
		// The allocation bound is checked on the MLP only. The linear
		// models fan each 512-row chunk out again over sched (their own
		// chunk is 256 rows), which adds about three allocations per
		// chunk on a multi-worker pool.
		if kind != ModelMLP {
			continue
		}
		// One KernelSHAP evaluation block. Allocating a standardized
		// vector per row, as StandardScaler.Transform does, costs 16,384.
		big := kernelRows(rng, p.Test.X[1], p.Background, 16384)
		out := make([]float64, len(big))
		if allocs := testing.AllocsPerRun(5, func() { sm.PredictBatch(big, out) }); allocs >= 100 {
			t.Fatalf("%v: %v allocations for a %d-row batch, want < 100", kind, allocs, len(big))
		}
	}
}

// TestScaledTransformParity checks the contract KernelSHAP relies on
// when it evaluates the wrapper's inner model itself: the transform that
// Standardized returns maps each input to the bits Predict's
// standardization gives, the inner model on it reproduces Predict, and a
// row mixed feature by feature from two transformed rows equals the
// transformed mix. The inputs hold NaN, ±0, ±Inf and the smallest
// subnormal.
func TestScaledTransformParity(t *testing.T) {
	ds, err := WebScenario().GenerateDataset(21, 1, telemetry.TargetBottleneckUtil)
	if err != nil {
		t.Fatal(err)
	}
	specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 5e-324}
	for _, kind := range []ModelKind{ModelMLP, ModelLinear} {
		p, err := NewPipeline(kind, ds, 22)
		if err != nil {
			t.Fatal(err)
		}
		sm := p.Model.(*scaledModel)
		inner, transform := sm.Standardized()
		rng := rand.New(rand.NewSource(6))
		x := append([]float64(nil), p.Test.X[0]...)
		bg := make([][]float64, len(p.Background))
		for i, b := range p.Background {
			bg[i] = append([]float64(nil), b...)
			bg[i][rng.Intn(len(b))] = specials[i%len(specials)]
		}
		for i, v := range specials {
			x[4*i] = v
		}
		d := len(x)
		tx := make([]float64, d)
		transform(tx, x)
		tb := make([]float64, d)
		got, want := make([]float64, d), make([]float64, d)
		for r, row := range kernelRows(rng, x, bg, 400) {
			transform(tb, bg[r%len(bg)]) // the background row kernelRows mixed in
			for j := range row {
				if sameBits(row[j], x[j]) {
					got[j] = tx[j]
				} else {
					got[j] = tb[j]
				}
			}
			transform(want, row)
			for j := range want {
				if !sameBits(got[j], want[j]) {
					t.Fatalf("%v: feature %d: mix of transformed rows %v, transformed mix %v", kind, j, got[j], want[j])
				}
			}
			if s := sm.scaler.Transform(row); !slices.EqualFunc(s, want, sameBits) {
				t.Fatalf("%v: Standardized's transform %v, scaler.Transform %v", kind, want, s)
			}
			if a, b := inner.Predict(want), sm.Predict(row); !sameBits(a, b) {
				t.Fatalf("%v: inner model on the transformed row %v, Predict %v", kind, a, b)
			}
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
