package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"nfvxai/internal/core"
	"nfvxai/internal/nfv/telemetry"
	"nfvxai/internal/registry"
	"nfvxai/internal/xai/xcache"
)

var update = flag.Bool("update", false, "rewrite the golden reply corpus under testdata/golden")

// goldenDir holds one file per golden request, plus the sha256 of the
// fixture pipeline's Save bytes.
const goldenDir = "testdata/golden"

// goldenModel is the MLP fixture's model name. Its entries carry no
// prefix; the linear and forest fixtures (fuzzPipelines, trained the same
// way) are prefixed with their kind. The cart and gbt kinds are not in
// the corpus yet.
const goldenModel = "web/mlp/util"

// goldenRequestID is sent on every golden request, so the one id a
// reply echoes is the same in every run. No reply in the corpus carries
// a timestamp, so nothing else is normalized.
const goldenRequestID = "golden"

var (
	goldenOnce     sync.Once
	goldenPipeline *core.Pipeline
)

// goldenMLP trains the fixture the way fuzzPipelines trains its models:
// 1 hour of web traffic at seed 1, pipeline seed 2, 64 SHAP samples.
func goldenMLP(t *testing.T) *core.Pipeline {
	t.Helper()
	goldenOnce.Do(func() {
		ds, err := core.WebScenario().GenerateDataset(1, 1, telemetry.TargetBottleneckUtil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.NewPipeline(core.ModelMLP, ds, 2)
		if err != nil {
			t.Fatal(err)
		}
		p.ShapSamples = 64
		goldenPipeline = p
	})
	if goldenPipeline == nil {
		t.Fatal("golden pipeline failed to train")
	}
	return goldenPipeline
}

// goldenRequest is one request of the corpus; name is its file name.
type goldenRequest struct {
	name, method, target string
	body                 any
}

// render writes one request and its reply in the corpus's format: the
// request line and body, the status, Content-Type and X-Cache, a blank
// line, then the reply body byte for byte.
func (g goldenRequest) render(body []byte, rec *httptest.ResponseRecorder) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "request: %s %s\n", g.method, g.target)
	fmt.Fprintf(&b, "request-body: %s\n", body)
	fmt.Fprintf(&b, "status: %d\n", rec.Code)
	fmt.Fprintf(&b, "content-type: %s\n", rec.Header().Get("Content-Type"))
	fmt.Fprintf(&b, "x-cache: %s\n\n", rec.Header().Get(HeaderCache))
	b.Write(rec.Body.Bytes())
	return b.Bytes()
}

// TestGoldenReplies compares every reply of one fresh server over
// fixed-seed web/mlp/util, web/linear/util and web/rf/util pipelines
// with the committed corpus, byte for byte, so a change that moves one bit of a prediction, an attribution,
// a status or a header shows as a changed file. Run with -update to
// rewrite the corpus; a change that does so names each file and the
// reason in CHANGES.md.
//
// Left out, because their bytes are not a function of the request:
// budgeted requests (their sample plan reads the measured
// PredictCostNs), model info (created_at and ready_at are wall-clock
// times) and the health, readiness and cache-counter routes (uptime,
// counters of earlier requests). Every request below gave the same bytes
// in two runs in one process and at GOMAXPROCS 1 and 2. Only registered
// routes are driven.
func TestGoldenReplies(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden replies are recorded on amd64; on %s, math.Exp and friends run other code and the compiler may fuse multiply-adds, so last bits can differ", runtime.GOARCH)
	}
	p := goldenMLP(t)
	forest, linear := fuzzPipelines(t)
	reg := registry.New()
	reg.UseExplainCache(xcache.New(xcache.Config{MaxBytes: 1 << 20}))
	for _, m := range []struct {
		name string
		p    *core.Pipeline
	}{{goldenModel, p}, {fuzzLinearName, linear}, {fuzzForestName, forest}} {
		if _, err := reg.AddReady(registry.Spec{Name: m.name}, m.p, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	s := NewServer(reg)
	defer s.Close()

	do := func(g goldenRequest) []byte {
		var body []byte
		if g.body != nil {
			var err error
			if body, err = json.Marshal(g.body); err != nil {
				t.Fatal(err)
			}
		}
		req := httptest.NewRequest(g.method, g.target, bytes.NewReader(body))
		req.Header.Set(HeaderRequestID, goldenRequestID)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return g.render(body, rec)
	}

	const m = "/v1/models/" + goldenModel
	x := p.Test.X[0]
	batch := p.Test.X[1:4]
	requests := []goldenRequest{
		{"schema", "GET", m + "/schema", nil},
		{"explainers", "GET", m + "/explainers", nil},
		{"predict-single", "POST", m + "/predict", map[string]any{"features": x}},
		// 7 rows: one full 4-row block and a partial one.
		{"predict-batch", "POST", m + "/predict", map[string]any{"instances": p.Test.X[:7]}},
		{"explain-default", "POST", m + "/explain", map[string]any{"features": x}},
	}
	for _, method := range goldenLocalMethods(t, s) {
		for _, eval := range []bool{false, true} {
			suffix := ""
			if eval {
				suffix = "-evaluate"
			}
			requests = append(requests,
				goldenRequest{"explain-" + method + "-single" + suffix, "POST", m + "/explain",
					map[string]any{"features": x, "method": method, "evaluate": eval}},
				goldenRequest{"explain-" + method + "-batch" + suffix, "POST", m + "/explain",
					map[string]any{"instances": batch, "method": method, "evaluate": eval}})
		}
	}
	requests = append(requests,
		goldenRequest{"whatif", "POST", m + "/whatif",
			WhatIfRequest{Features: x, Op: "<=", Value: 0.4, Immutable: []string{"hour_sin", "hour_cos"}}},
		goldenRequest{"importance", "GET", m + "/importance", nil},
		goldenRequest{"explain-treeshap-409", "POST", m + "/explain", map[string]any{"features": x, "method": "treeshap"}},
		goldenRequest{"predict-wrong-width-400", "POST", m + "/predict", map[string]any{"features": x[:3]}},
	)
	// KernelSHAP at the served budget (1,024 coalitions), where sampled
	// coalitions repeat.
	requests = append(requests, goldenKernelSHAP("", m, x, batch, 1024)...)
	for _, f := range []struct{ prefix, name string }{{"linear-", fuzzLinearName}, {"rf-", fuzzForestName}} {
		fm := "/v1/models/" + f.name
		requests = append(requests,
			goldenRequest{f.prefix + "explainers", "GET", fm + "/explainers", nil},
			goldenRequest{f.prefix + "predict-single", "POST", fm + "/predict", map[string]any{"features": x}},
			goldenRequest{f.prefix + "predict-batch", "POST", fm + "/predict", map[string]any{"instances": p.Test.X[:7]}},
			goldenRequest{f.prefix + "explain-default", "POST", fm + "/explain", map[string]any{"features": x}},
		)
		requests = append(requests, goldenKernelSHAP(f.prefix, fm, x, batch, 64)...)
		requests = append(requests, goldenKernelSHAP(f.prefix, fm, x, batch, 1024)...)
	}
	requests = append(requests, goldenRequest{"rf-explain-treeshap-single", "POST", "/v1/models/" + fuzzForestName + "/explain",
		map[string]any{"features": x, "method": "treeshap"}})

	saved, err := p.Save()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(saved)
	got := map[string][]byte{"pipeline-save.sha256": []byte(hex.EncodeToString(sum[:]) + "\n")}
	for _, g := range requests {
		if _, dup := got[g.name]; dup {
			t.Fatalf("duplicate golden name %q", g.name)
		}
		got[g.name] = do(g)
	}

	if *update {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range got {
			if err := os.WriteFile(filepath.Join(goldenDir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatalf("%v (run with -update to record the corpus)", err)
	}
	for _, e := range entries {
		if _, ok := got[e.Name()]; !ok {
			t.Errorf("%s: stale golden file, no request records it", e.Name())
		}
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !bytes.Equal(got[name], want) {
			t.Errorf("%s: reply differs from the golden file\n%s", name, firstDiff(want, got[name]))
		}
	}
}

// goldenKernelSHAP is a KernelSHAP explain at the given sample budget,
// single and batch, on the model under path m.
func goldenKernelSHAP(prefix, m string, x []float64, batch [][]float64, samples int) []goldenRequest {
	name := fmt.Sprintf("%sexplain-kernelshap-%d-", prefix, samples)
	params := map[string]any{"samples": samples}
	return []goldenRequest{
		{name + "single", "POST", m + "/explain", map[string]any{"features": x, "method": "kernelshap", "params": params}},
		{name + "batch", "POST", m + "/explain", map[string]any{"instances": batch, "method": "kernelshap", "params": params}},
	}
}

// goldenLocalMethods lists the local methods the server's explainers
// route offers for the fixture model, by name.
func goldenLocalMethods(t *testing.T, s *Server) []string {
	t.Helper()
	req := httptest.NewRequest("GET", "/v1/models/"+goldenModel+"/explainers", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("explainers: %d %s", rec.Code, rec.Body.Bytes())
	}
	var list ExplainerListResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	var methods []string
	for _, e := range list.Explainers {
		if e.Kind == "local" {
			methods = append(methods, e.Name)
		}
	}
	sort.Strings(methods)
	return methods
}

// firstDiff names the first line where got departs from want.
func firstDiff(want, got []byte) string {
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d\n  want: %.400s\n  got:  %.400s", i+1, w, g)
		}
	}
	return "same lines, different bytes"
}
