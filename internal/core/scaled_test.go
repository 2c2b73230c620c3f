package core

import (
	"math"
	"math/rand"
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
		// vector per row, as Scaler.Transform does, costs 16,384.
		big := kernelRows(rng, p.Test.X[1], p.Background, 16384)
		out := make([]float64, len(big))
		if allocs := testing.AllocsPerRun(5, func() { sm.PredictBatch(big, out) }); allocs >= 100 {
			t.Fatalf("%v: %v allocations for a %d-row batch, want < 100", kind, allocs, len(big))
		}
	}
}
