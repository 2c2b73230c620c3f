package nfvxai

// Benchmark pairs for the durable artifact plane (PR 5): warm-starting a
// registry from stored artifacts vs retraining the same models from
// scratch, and experiment-sweep throughput at 1 worker vs NumCPU. The
// headline numbers are recorded in BENCH_PR5.json:
//
//	go test -run '^$' -bench 'WarmStart|TrainFromScratch|ExperimentSweep' -benchtime 3x .

import (
	"context"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"nfvxai/internal/core"
	"nfvxai/internal/experiment"
	"nfvxai/internal/registry"
)

// persistSpecs are the models both sides of the warm-vs-cold pair build:
// one of each zoo family that core.TrainModel treats differently.
func persistSpecs() []registry.Spec {
	return []registry.Spec{
		{Scenario: "web", Model: "linear", Target: "util", Hours: persistBenchHours(), Seed: 2},
		{Scenario: "web", Model: "cart", Target: "util", Hours: persistBenchHours(), Seed: 2},
		{Scenario: "web", Model: "rf", Target: "util", Hours: persistBenchHours(), Seed: 2},
	}
}

// persistBenchHours mirrors the bench-smoke knob used since PR 1.
func persistBenchHours() float64 {
	if os.Getenv("NFVXAI_BENCH_HOURS") != "" {
		return 1
	}
	return 4
}

var (
	persistStoreOnce sync.Once
	persistStore     *registry.Store
	persistStoreDir  string
)

// TestMain removes the store directory persistSeedStore created, so a
// benchmark run leaves nothing behind under $TMPDIR.
func TestMain(m *testing.M) {
	m.Run()
	if persistStoreDir != "" {
		os.RemoveAll(persistStoreDir)
	}
}

// persistSeedStore trains the spec set once and persists it, the state a
// warm start restores from.
func persistSeedStore(b *testing.B) *registry.Store {
	b.Helper()
	persistStoreOnce.Do(func() {
		dir, err := os.MkdirTemp("", "nfvxai-bench-store-")
		if err != nil {
			b.Fatal(err)
		}
		persistStoreDir = dir
		st, err := registry.OpenFSStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		reg := registry.New()
		reg.OnStoreError = func(err error) { b.Errorf("store: %v", err) }
		reg.UseStore(st)
		for _, sp := range persistSpecs() {
			p, err := reg.BuildPipeline(sp)
			if err != nil {
				b.Fatal(err)
			}
			sp.Name = sp.Scenario + "/" + sp.Model + "/" + sp.Target
			if _, err := reg.AddReady(sp, p, time.Now()); err != nil {
				b.Fatal(err)
			}
		}
		persistStore = st
	})
	return persistStore
}

// BenchmarkRegistryWarmStart restores all three pipelines from disk with
// the boot round serve.Open runs for explaind -store: one SyncManifest
// on an empty registry.
func BenchmarkRegistryWarmStart(b *testing.B) {
	st := persistSeedStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := registry.New()
		reg.UseStore(st)
		rep, err := reg.SyncManifest(time.Now())
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Adopted) != 3 || len(rep.Errors) != 0 {
			b.Fatalf("restored %d models, %d errors", len(rep.Adopted), len(rep.Errors))
		}
	}
}

// BenchmarkRegistryTrainFromScratch is the cold twin: simulate the
// telemetry and train the same three models — what every boot paid
// before the artifact plane.
func BenchmarkRegistryTrainFromScratch(b *testing.B) {
	persistSeedStore(b) // same fixture cost outside the timer for fairness
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := registry.New()
		for _, sp := range persistSpecs() {
			p, err := reg.BuildPipeline(sp)
			if err != nil {
				b.Fatal(err)
			}
			sp.Name = sp.Scenario + "/" + sp.Model + "/" + sp.Target
			if _, err := reg.AddReady(sp, p, time.Now()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// sweepBenchSpec is the experiment-throughput workload: 4 cells over one
// short dataset, explained with small budgets.
func sweepBenchSpec(workers int) experiment.Spec {
	return experiment.Spec{
		Scenarios:      []string{"web"},
		Models:         []string{"linear", "cart"},
		Methods:        []string{"kernelshap", "treeshap"},
		Hours:          0.25,
		Seed:           2,
		Samples:        4,
		ShapSamples:    128,
		DeletionTrials: 3,
		Workers:        workers,
	}
}

func benchSweep(b *testing.B, workers int) {
	r := experiment.Runner{Scenarios: core.NewScenarioRegistry()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := r.Run(context.Background(), sweepBenchSpec(workers), nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(m.Cells) != 4 {
			b.Fatalf("cells = %d", len(m.Cells))
		}
	}
}

// BenchmarkExperimentSweep1Worker / NumCPU measure cells/min scaling of
// the dependency-aware plan executor.
func BenchmarkExperimentSweep1Worker(b *testing.B) { benchSweep(b, 1) }

func BenchmarkExperimentSweepNumCPU(b *testing.B) { benchSweep(b, runtime.NumCPU()) }
