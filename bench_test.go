package nfvxai

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (go run ./cmd/nfvxai -list prints the experiment index).
// Each benchmark prints the artifact's rows, so
//
//	go test -bench=. -benchmem ./... | tee bench_output.txt
//
// doubles as the reproduction record. By default each experiment uses
// NFVXAI_BENCH_HOURS (default 6) virtual hours of telemetry; set it to 24
// for the full-size record.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"

	"nfvxai/internal/core"
	"nfvxai/internal/nfv/telemetry"
	"nfvxai/internal/serve"
)

func benchConfig() core.ExpConfig {
	hours := 6.0
	if v := os.Getenv("NFVXAI_BENCH_HOURS"); v != "" {
		if h, err := strconv.ParseFloat(v, 64); err == nil && h > 0 {
			hours = h
		}
	}
	return core.ExpConfig{SimHours: hours, Explained: 50, ShapSamples: 1024, Seed: 1}
}

// printOnce ensures each artifact is printed a single time even if the
// benchmark harness reruns the function with larger b.N.
var printed sync.Map

func emit(id string, s fmt.Stringer) {
	if _, loaded := printed.LoadOrStore(id, true); !loaded {
		fmt.Printf("\n%s\n", s.String())
	}
}

func BenchmarkTable1ModelAccuracy(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := core.Table1ModelAccuracy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		emit("t1", res)
	}
}

func BenchmarkTable2ViolationClassifiers(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := core.Table2ViolationClassifiers(cfg)
		if err != nil {
			b.Fatal(err)
		}
		emit("t2", res)
	}
}

func BenchmarkTable3ExplanationFidelity(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := core.Table3ExplanationFidelity(cfg)
		if err != nil {
			b.Fatal(err)
		}
		emit("t3", res)
	}
}

func BenchmarkTable4Counterfactuals(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := core.Table4Counterfactuals(cfg)
		if err != nil {
			b.Fatal(err)
		}
		emit("t4", res)
	}
}

func BenchmarkFigure1GlobalImportance(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := core.Figure1GlobalImportance(cfg)
		if err != nil {
			b.Fatal(err)
		}
		emit("f1", res)
	}
}

func BenchmarkFigure2ExplanationLatency(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := core.Figure2ExplanationLatency(cfg)
		if err != nil {
			b.Fatal(err)
		}
		emit("f2", res)
	}
}

func BenchmarkFigure3DeletionCurve(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := core.Figure3DeletionCurve(cfg)
		if err != nil {
			b.Fatal(err)
		}
		emit("f3", res)
	}
}

func BenchmarkFigure4CleverHans(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := core.Figure4CleverHans(cfg)
		if err != nil {
			b.Fatal(err)
		}
		emit("f4", res)
	}
}

func BenchmarkFigure5Stability(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := core.Figure5Stability(cfg)
		if err != nil {
			b.Fatal(err)
		}
		emit("f5", res)
	}
}

func BenchmarkFigure6Autoscaling(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := core.Figure6Autoscaling(cfg)
		if err != nil {
			b.Fatal(err)
		}
		emit("f6", res)
	}
}

// ─── serving-path benchmarks ────────────────────────────────────────────
//
// BenchmarkServeExplainBatch vs BenchmarkServeExplainSequentialUncached
// measure the v1 API redesign's hot path: one batch request fanning out
// over the cached explainer's worker pool, against the seed behavior of N
// sequential /explain requests that each rebuild the explainer. Both
// explain serveBatchSize instances per iteration, so ns/op is directly
// comparable.

const serveBatchSize = 16

var (
	servePipelineOnce sync.Once
	servePipeline     *core.Pipeline
)

func benchServePipeline(b *testing.B) *core.Pipeline {
	b.Helper()
	servePipelineOnce.Do(func() {
		ds, err := core.WebScenario().GenerateDataset(1, 1, telemetry.TargetBottleneckUtil)
		if err != nil {
			b.Fatal(err)
		}
		p, err := core.NewPipeline(core.ModelForest, ds, 2)
		if err != nil {
			b.Fatal(err)
		}
		servePipeline = p
	})
	return servePipeline
}

func postExplain(b *testing.B, url string, body any) {
	b.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&struct{}{}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkServeExplainBatch(b *testing.B) {
	p := benchServePipeline(b)
	srv := httptest.NewServer(serve.New(p))
	defer srv.Close()
	instances := p.Test.X[:serveBatchSize]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postExplain(b, srv.URL+"/v1/models/default/explain", map[string]any{"instances": instances, "topk": 5})
	}
}

func BenchmarkServeExplainSequentialUncached(b *testing.B) {
	p := benchServePipeline(b)
	p.DisableExplainerCache = true
	defer func() { p.DisableExplainerCache = false }()
	srv := httptest.NewServer(serve.New(p))
	defer srv.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range p.Test.X[:serveBatchSize] {
			postExplain(b, srv.URL+"/explain", map[string]any{"features": x, "topk": 5})
		}
	}
}
