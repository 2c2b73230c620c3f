package nfvxai

// Kernel-plane benchmarks for MLP evaluation. A KernelSHAP explain of
// the MLP spends nearly all its time evaluating the perturbation matrix
// through the pipeline's standardizing wrapper and the MLP's batch path.
// These two benchmarks time that stage alone and the explain around it;
// BENCH_PR13.json records them:
//
//	go test -run '^$' -bench 'MLPPredictBatch|KernelShapMLP' -benchmem -cpu 1,2 .

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"nfvxai/internal/core"
	"nfvxai/internal/ml"
	"nfvxai/internal/xai/shap"
)

var (
	mlpBenchOnce sync.Once
	mlpBenchPipe *core.Pipeline
	mlpBenchErr  error
)

// mlpBenchPipeline trains the web/mlp/util pipeline (core.TrainModel's
// MLP behind its standardizing wrapper) on the perf benches' telemetry.
func mlpBenchPipeline(b *testing.B) *core.Pipeline {
	b.Helper()
	perfModels(b)
	mlpBenchOnce.Do(func() {
		mlpBenchPipe, mlpBenchErr = core.NewPipeline(core.ModelMLP, perfDS, 2)
	})
	if mlpBenchErr != nil {
		b.Fatal(mlpBenchErr)
	}
	return mlpBenchPipe
}

// BenchmarkMLPPredictBatch evaluates one KernelSHAP-sized block: 16,384
// rows, each taking the explained instance on a random coalition of
// features and a background row on the rest.
func BenchmarkMLPPredictBatch(b *testing.B) {
	p := mlpBenchPipeline(b)
	rng := rand.New(rand.NewSource(3))
	x := p.Test.X[0]
	X := make([][]float64, 16384)
	for r := range X {
		bg := p.Background[r%len(p.Background)]
		z := make([]float64, len(x))
		for j := range z {
			if rng.Intn(2) == 0 {
				z[j] = x[j]
			} else {
				z[j] = bg[j]
			}
		}
		X[r] = z
	}
	out := make([]float64, len(X))
	ml.PredictBatchParallel(p.Model, X, out, 0) // fill the scratch pools
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ml.PredictBatchParallel(p.Model, X, out, 0)
	}
}

// BenchmarkKernelShapMLP explains one instance per iteration at the
// default 1024-coalition budget over the pipeline's 60-row background,
// reusing one Kernel as the serving path does.
func BenchmarkKernelShapMLP(b *testing.B) {
	p := mlpBenchPipeline(b)
	k := &shap.Kernel{Model: p.Model, Background: p.Background, NumSamples: 1024, Seed: 7}
	x := p.Test.X[0]
	if _, err := k.Explain(context.Background(), x); err != nil { // computes the base value once
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Explain(context.Background(), x); err != nil {
			b.Fatal(err)
		}
	}
}
