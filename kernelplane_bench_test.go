package nfvxai

// Benchmark pairs for the kernel plane (PR 10): the quantized float32/
// SoA tree path against the float64 flat path it opts out of, over the
// same trained ensembles and rows. The headline speedups are recorded in
// BENCH_PR10.json and gated by cmd/benchdiff:
//
//	go test -run '^$' -bench 'QuantPredict' -benchmem .
//
// The workload is a seeded synthetic regression surface rather than the
// telemetry scenario the other perf benches use: the quantized path only
// serves when its parity probe accepts, and realistic telemetry rows
// occasionally land close enough to a split threshold that float32 input
// rounding flips a leaf — an honest rejection, but one that would leave
// this pair silently benchmarking the exact path twice. Every quantized
// benchmark asserts QuantActive after warm-up for the same reason.

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"nfvxai/internal/core"
	"nfvxai/internal/dataset"
	"nfvxai/internal/ml"
	"nfvxai/internal/ml/forest"
	"nfvxai/internal/xai/shap"
)

var (
	quantBenchOnce sync.Once
	quantBenchDS   *dataset.Dataset
	quantBenchRF   *forest.RandomForest
	quantBenchGBT  *forest.GradientBoosting
)

// quantBenchModels trains the quantized-pair workload: 4096 rows of a
// smooth nonlinear response over 16 features, under the same ensemble
// hyperparameters core.TrainModel uses.
func quantBenchModels(b *testing.B) {
	b.Helper()
	quantBenchOnce.Do(func() {
		const rows, d = 4096, 16
		rng := rand.New(rand.NewSource(11))
		ds := &dataset.Dataset{Task: dataset.Regression}
		for j := 0; j < d; j++ {
			ds.Names = append(ds.Names, "f")
		}
		for i := 0; i < rows; i++ {
			x := make([]float64, d)
			for j := range x {
				x[j] = rng.NormFloat64()
			}
			y := 10*x[0]*x[1] + 5*x[2] + 3*x[3]*x[3] + rng.NormFloat64()
			ds.X = append(ds.X, x)
			ds.Y = append(ds.Y, y)
		}
		quantBenchDS = ds
		quantBenchRF = &forest.RandomForest{NumTrees: 40, MaxDepth: 10, MinLeaf: 3, Task: ds.Task, Seed: 2}
		if err := quantBenchRF.Fit(ds); err != nil {
			panic(err)
		}
		quantBenchGBT = &forest.GradientBoosting{NumRounds: 120, LearningRate: 0.1, MaxDepth: 4, Task: ds.Task, Seed: 2}
		if err := quantBenchGBT.Fit(ds); err != nil {
			panic(err)
		}
	})
}

// quantWarm runs the parity-probe batch (served exact) so the benchmark
// loop times the steady-state quantized kernel, then asserts the probe
// accepted — a rejected probe would silently bench the exact path.
func quantWarm(b *testing.B, m ml.BatchPredictor, active func() bool) {
	b.Helper()
	out := make([]float64, len(quantBenchDS.X))
	m.PredictBatch(quantBenchDS.X, out)
	if !active() {
		b.Fatal("quantized parity probe rejected; benchmark would measure the exact path")
	}
}

func BenchmarkForestQuantPredictFloat64(b *testing.B) {
	quantBenchModels(b)
	X := quantBenchDS.X
	out := make([]float64, len(X))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quantBenchRF.PredictBatch(X, out)
	}
}

func BenchmarkForestQuantPredictQuantized(b *testing.B) {
	quantBenchModels(b)
	qf := *quantBenchRF
	qf.Quantize = true
	quantWarm(b, &qf, qf.QuantActive)
	X := quantBenchDS.X
	out := make([]float64, len(X))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qf.PredictBatch(X, out)
	}
}

func BenchmarkGBTQuantPredictFloat64(b *testing.B) {
	quantBenchModels(b)
	X := quantBenchDS.X
	out := make([]float64, len(X))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quantBenchGBT.PredictBatch(X, out)
	}
}

func BenchmarkGBTQuantPredictQuantized(b *testing.B) {
	quantBenchModels(b)
	qg := *quantBenchGBT
	qg.Quantize = true
	quantWarm(b, &qg, qg.QuantActive)
	X := quantBenchDS.X
	out := make([]float64, len(X))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qg.PredictBatch(X, out)
	}
}

// ─── MLP evaluation ─────────────────────────────────────────────────────
//
// A KernelSHAP explain of the MLP spends nearly all its time evaluating
// the perturbation matrix through the pipeline's standardizing wrapper
// and the MLP's batch path. These two benchmarks time that stage alone
// and the explain around it; BENCH_PR13.json records them:
//
//	go test -run '^$' -bench 'MLPPredictBatch|KernelShapMLP' -benchmem -cpu 1,2 .

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
	ml.PredictBatchParallel(p.Model, X, out, 0) // fill the worker arenas
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
