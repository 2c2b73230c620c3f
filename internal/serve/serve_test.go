package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"nfvxai/internal/core"
	"nfvxai/internal/nfv/telemetry"
	"nfvxai/internal/registry"
	"nfvxai/internal/xai"
)

var (
	testPipeline     *core.Pipeline
	testPipelineOnce sync.Once
)

// pipeline trains one small web/rf/util pipeline shared by the tests.
func pipeline(t *testing.T) *core.Pipeline {
	t.Helper()
	testPipelineOnce.Do(func() {
		ds, err := core.WebScenario().GenerateDataset(1, 1, telemetry.TargetBottleneckUtil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.NewPipeline(core.ModelForest, ds, 2)
		if err != nil {
			t.Fatal(err)
		}
		p.ShapSamples = 128
		testPipeline = p
	})
	return testPipeline
}

func postJSON(t *testing.T, srv *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getJSON(t *testing.T, srv *httptest.Server, path string) *http.Response {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func wantStatus(t *testing.T, resp *http.Response, want int) {
	t.Helper()
	if resp.StatusCode != want {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d want %d (body %s)", resp.StatusCode, want, body)
	}
}

// ─── v1 model-scoped serving ────────────────────────────────────────────

func TestHealthAndSchema(t *testing.T) {
	srv := httptest.NewServer(New(pipeline(t)))
	defer srv.Close()

	resp := getJSON(t, srv, "/healthz")
	wantStatus(t, resp, http.StatusOK)
	health := decode[HealthResponse](t, resp)
	if health.Status != "ok" || health.Model != "rf" || health.Models != 1 || health.Ready != 1 {
		t.Fatalf("health %+v", health)
	}
	if health.Default != "default" {
		t.Fatalf("default %q", health.Default)
	}

	for _, path := range []string{"/schema", "/v1/models/default/schema"} {
		resp = getJSON(t, srv, path)
		wantStatus(t, resp, http.StatusOK)
		schema := decode[SchemaResponse](t, resp)
		if len(schema.Features) != pipeline(t).Train.NumFeatures() {
			t.Fatalf("%s features %d", path, len(schema.Features))
		}
		if schema.Task != "regression" {
			t.Fatalf("%s task %q", path, schema.Task)
		}
	}
}

func TestModelInfoAndList(t *testing.T) {
	srv := httptest.NewServer(New(pipeline(t)))
	defer srv.Close()

	resp := getJSON(t, srv, "/v1/models")
	wantStatus(t, resp, http.StatusOK)
	list := decode[ModelListResponse](t, resp)
	if list.Default != "default" || len(list.Models) != 1 {
		t.Fatalf("list %+v", list)
	}
	if list.Models[0].Status != "ready" || list.Models[0].Kind != "rf" {
		t.Fatalf("entry %+v", list.Models[0])
	}

	resp = getJSON(t, srv, "/v1/models/default")
	wantStatus(t, resp, http.StatusOK)
	info := decode[ModelInfo](t, resp)
	if info.Name != "default" || info.Status != "ready" || len(info.Features) == 0 {
		t.Fatalf("info %+v", info)
	}

	resp = getJSON(t, srv, "/v1/models/nope")
	wantStatus(t, resp, http.StatusNotFound)
	resp.Body.Close()
}

func TestPredictEndpoint(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(New(p))
	defer srv.Close()

	x := p.Test.X[0]
	want := p.Model.Predict(x)
	for _, path := range []string{"/predict", "/v1/models/default/predict"} {
		resp := postJSON(t, srv, path, map[string]any{"features": x})
		wantStatus(t, resp, http.StatusOK)
		got := decode[PredictResponse](t, resp)
		if got.Prediction != want {
			t.Fatalf("%s prediction %v want %v", path, got.Prediction, want)
		}
	}
}

func TestPredictValidation(t *testing.T) {
	srv := httptest.NewServer(New(pipeline(t)))
	defer srv.Close()

	// Wrong width.
	resp := postJSON(t, srv, "/v1/models/default/predict", map[string]any{"features": []float64{1, 2}})
	wantStatus(t, resp, http.StatusBadRequest)
	errBody := decode[map[string]string](t, resp)
	if !strings.Contains(errBody["error"], "features") {
		t.Fatalf("error %q", errBody["error"])
	}
	// Malformed JSON.
	resp2, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed status %d", resp2.StatusCode)
	}
	// Wrong method: the API's JSON error, with the mux's Allow header.
	resp3 := getJSON(t, srv, "/predict")
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict status %d", resp3.StatusCode)
	}
	if got := resp3.Header.Get("Allow"); got != "POST" {
		t.Fatalf("GET /predict Allow %q, want POST", got)
	}
	if ct := resp3.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET /predict Content-Type %q", ct)
	}
	rid := resp3.Header.Get(HeaderRequestID)
	if got := decode[map[string]string](t, resp3); got["error"] == "" || got["request_id"] != rid || rid == "" {
		t.Fatalf("GET /predict body %v lacks an error or request_id %q", got, rid)
	}
	// Unknown model.
	resp4 := postJSON(t, srv, "/v1/models/nope/predict", map[string]any{"features": []float64{1}})
	wantStatus(t, resp4, http.StatusNotFound)
	resp4.Body.Close()
	// Batch body on predict scores every instance through the batch path
	// and must agree with the single-instance endpoint.
	p := pipeline(t)
	resp5 := postJSON(t, srv, "/v1/models/default/predict",
		map[string]any{"instances": [][]float64{p.Test.X[0], p.Test.X[1]}})
	wantStatus(t, resp5, http.StatusOK)
	batch := decode[BatchPredictResponse](t, resp5)
	if batch.Count != 2 || len(batch.Predictions) != 2 {
		t.Fatalf("batch predict count %d predictions %d", batch.Count, len(batch.Predictions))
	}
	for i, want := range []float64{p.Model.Predict(p.Test.X[0]), p.Model.Predict(p.Test.X[1])} {
		if batch.Predictions[i] != want {
			t.Fatalf("batch prediction %d = %v want %v", i, batch.Predictions[i], want)
		}
	}
	// Unknown action.
	resp6 := postJSON(t, srv, "/v1/models/default/transmogrify", map[string]any{})
	wantStatus(t, resp6, http.StatusNotFound)
	resp6.Body.Close()
}

func TestExplainEndpoint(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(New(p))
	defer srv.Close()

	x := p.Test.X[1]
	resp := postJSON(t, srv, "/v1/models/default/explain", map[string]any{"features": x, "topk": 3})
	wantStatus(t, resp, http.StatusOK)
	got := decode[ExplainResponse](t, resp)
	if got.Method != "treeshap" {
		t.Fatalf("method %q", got.Method)
	}
	if len(got.Contributions) != 3 {
		t.Fatalf("contributions %d", len(got.Contributions))
	}
	if got.Contributions[0].Feature == "" {
		t.Fatal("unnamed contribution")
	}
	if !strings.Contains(got.Report, "prediction") {
		t.Fatalf("report %q", got.Report)
	}
	if diff := got.Prediction - p.Model.Predict(x); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("explained prediction mismatch: %v", diff)
	}
}

func TestExplainBatch(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(New(p))
	defer srv.Close()

	instances := p.Test.X[:8]
	resp := postJSON(t, srv, "/v1/models/default/explain",
		map[string]any{"instances": instances, "topk": 4})
	wantStatus(t, resp, http.StatusOK)
	got := decode[BatchExplainResponse](t, resp)
	if got.Method != "treeshap" || got.Count != len(instances) || len(got.Explanations) != len(instances) {
		t.Fatalf("batch shape: method %q count %d len %d", got.Method, got.Count, len(got.Explanations))
	}
	for i, e := range got.Explanations {
		if diff := e.Prediction - p.Model.Predict(instances[i]); diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("instance %d prediction mismatch %v", i, diff)
		}
		if len(e.Contributions) != 4 {
			t.Fatalf("instance %d contributions %d", i, len(e.Contributions))
		}
	}

	// Batch validation: both bodies, empty batch, ragged instance, oversize.
	for name, body := range map[string]map[string]any{
		"both":     {"features": instances[0], "instances": instances},
		"empty":    {"instances": [][]float64{}},
		"ragged":   {"instances": [][]float64{instances[0], {1, 2}}},
		"oversize": {"instances": make([][]float64, MaxBatch+1)},
	} {
		if body["instances"] != nil {
			if raw, ok := body["instances"].([][]float64); ok && len(raw) == MaxBatch+1 {
				for i := range raw {
					raw[i] = instances[0]
				}
			}
		}
		resp := postJSON(t, srv, "/v1/models/default/explain", body)
		wantStatus(t, resp, http.StatusBadRequest)
		resp.Body.Close()
		_ = name
	}
}

// countingBody is a request body of pad filler bytes followed by tail;
// read counts how many bytes the server pulled from it.
type countingBody struct {
	pad  int64
	fill byte
	tail []byte
	read int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	var n int
	if b.pad > 0 {
		n = int(min(int64(len(p)), b.pad))
		for i := range p[:n] {
			p[i] = b.fill
		}
		b.pad -= int64(n)
	} else {
		n = copy(p, b.tail)
		b.tail = b.tail[n:]
	}
	b.read += int64(n)
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// TestRequestBodyBound: no JSON handler reads more than MaxJSONBytes of
// a body, and artifact import no more than MaxArtifactBytes. Every route
// refuses the rest as too large; a valid JSON body of exactly
// MaxJSONBytes is served.
func TestRequestBodyBound(t *testing.T) {
	p := pipeline(t)
	s := New(p)
	valid, err := json.Marshal(map[string]any{"features": p.Test.X[0]})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path  string
		body  *countingBody
		want  int
		limit int64
	}{
		// Valid JSON: whitespace, then the instance.
		{"/v1/models/default/explain", &countingBody{pad: 65 << 20, fill: ' ', tail: valid}, http.StatusRequestEntityTooLarge, MaxJSONBytes},
		{"/v1/models/default/explain", &countingBody{pad: MaxJSONBytes - int64(len(valid)), fill: ' ', tail: valid}, http.StatusOK, MaxJSONBytes},
		{"/v1/models/import", &countingBody{pad: MaxArtifactBytes + 1}, http.StatusRequestEntityTooLarge, MaxArtifactBytes},
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, tc.body))
		if rec.Code != tc.want {
			t.Errorf("%s: status %d want %d (body %.200s)", tc.path, rec.Code, tc.want, rec.Body.Bytes())
		}
		if tc.body.read > tc.limit+1 {
			t.Errorf("%s: server read %d body bytes, limit %d", tc.path, tc.body.read, tc.limit)
		}
		debug.FreeOSMemory() // the import case buffers ~64 MiB; keep cases from stacking
	}
}

// TestNonFiniteReplyIs422: features at 1e308 drive a linear model's
// prediction and attributions, and an MLP's attributions, past float64.
// JSON cannot carry ±Inf or NaN, so each such reply — single and batch —
// is a JSON 422 carrying the request id, never a 200 with an empty body.
func TestNonFiniteReplyIs422(t *testing.T) {
	ds, err := core.WebScenario().GenerateDataset(3, 1, telemetry.TargetBottleneckUtil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind    core.ModelKind
		actions []string
	}{
		{core.ModelLinear, []string{"predict", "explain"}},
		{core.ModelMLP, []string{"explain"}},
	} {
		p, err := core.NewPipeline(tc.kind, ds, 4)
		if err != nil {
			t.Fatal(err)
		}
		p.ShapSamples = 64
		srv := httptest.NewServer(New(p))
		x := make([]float64, p.Train.NumFeatures())
		for i := range x {
			x[i] = 1e308
		}
		for _, action := range tc.actions {
			for shape, body := range map[string]any{
				"single": map[string]any{"features": x},
				"batch":  map[string]any{"instances": [][]float64{x, x}},
			} {
				resp := postJSON(t, srv, "/v1/models/default/"+action, body)
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var got map[string]string
				if resp.StatusCode != http.StatusUnprocessableEntity ||
					resp.Header.Get("Content-Type") != "application/json" ||
					json.Unmarshal(raw, &got) != nil || got["error"] == "" ||
					got["request_id"] != resp.Header.Get(HeaderRequestID) {
					t.Errorf("%v %s %s: status %d, body %q; want a JSON 422 carrying the request id",
						tc.kind, shape, action, resp.StatusCode, raw)
				}
			}
		}
		srv.Close()
	}
}

// ─── method selection ───────────────────────────────────────────────────

func TestExplainersEndpoint(t *testing.T) {
	srv := httptest.NewServer(New(pipeline(t)))
	defer srv.Close()

	resp := getJSON(t, srv, "/v1/models/default/explainers")
	wantStatus(t, resp, http.StatusOK)
	got := decode[ExplainerListResponse](t, resp)
	if got.DefaultMethod != "treeshap" {
		t.Fatalf("default method %q", got.DefaultMethod)
	}
	byName := map[string]ExplainerInfo{}
	for _, e := range got.Explainers {
		byName[e.Name] = e
	}
	// The forest supports the tree and model-agnostic local methods plus
	// the global ones; intgrad (gradient-only) must NOT be listed.
	for _, want := range []string{"treeshap", "kernelshap", "lime", "anchors", "counterfactual", "pdp", "perm", "surrogate"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("method %q missing from %v", want, got.Explainers)
		}
	}
	if _, ok := byName["intgrad"]; ok {
		t.Fatal("intgrad listed for a non-differentiable forest")
	}
	if !byName["treeshap"].Default || byName["lime"].Default {
		t.Fatal("default flag misplaced")
	}
	if byName["pdp"].Kind != "global" || byName["lime"].Kind != "local" {
		t.Fatalf("kinds: pdp %q lime %q", byName["pdp"].Kind, byName["lime"].Kind)
	}
	if !byName["kernelshap"].Capabilities.NeedsBackground {
		t.Fatal("kernelshap capabilities lost")
	}
	// Advertised defaults reflect what an option-less request actually
	// runs: the pipeline's ShapSamples, not the registry's 2048.
	if got, want := byName["kernelshap"].DefaultParams.Samples, pipeline(t).ShapSamples; got != want {
		t.Fatalf("kernelshap advertised samples %d want %d", got, want)
	}
	// Unknown model → 404.
	nf := getJSON(t, srv, "/v1/models/nope/explainers")
	wantStatus(t, nf, http.StatusNotFound)
	nf.Body.Close()
}

func TestExplainMethodSelection(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(New(p))
	defer srv.Close()

	x := p.Test.X[2]
	// Explicit default-equivalent method.
	resp := postJSON(t, srv, "/v1/models/default/explain",
		map[string]any{"features": x, "method": "treeshap"})
	wantStatus(t, resp, http.StatusOK)
	if got := decode[ExplainResponse](t, resp); got.Method != "treeshap" {
		t.Fatalf("method %q", got.Method)
	}
	// Alternative methods succeed on the forest and label themselves.
	for _, method := range []string{"kernelshap", "lime", "anchors", "counterfactual"} {
		resp := postJSON(t, srv, "/v1/models/default/explain",
			map[string]any{"features": x, "method": method, "params": map[string]any{"samples": 64}})
		wantStatus(t, resp, http.StatusOK)
		if got := decode[ExplainResponse](t, resp); got.Method != method {
			t.Fatalf("method %q want %q", got.Method, method)
		}
	}
	// Method + params also applies to batch bodies.
	respB := postJSON(t, srv, "/v1/models/default/explain",
		map[string]any{"instances": p.Test.X[:3], "method": "lime", "params": map[string]any{"samples": 100, "seed": 9}})
	wantStatus(t, respB, http.StatusOK)
	if got := decode[BatchExplainResponse](t, respB); got.Method != "lime" || got.Count != 3 {
		t.Fatalf("batch method selection: %+v", got)
	}
}

func TestExplainMethodErrors(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(New(p))
	defer srv.Close()
	x := p.Test.X[0]

	// Unknown method → 400 listing the registry.
	resp := postJSON(t, srv, "/v1/models/default/explain",
		map[string]any{"features": x, "method": "deeplift"})
	wantStatus(t, resp, http.StatusBadRequest)
	if errBody := decode[map[string]string](t, resp); !strings.Contains(errBody["error"], "treeshap") {
		t.Fatalf("error %q does not list methods", errBody["error"])
	}
	// Capability mismatch: intgrad on the (non-differentiable) forest → 409.
	resp2 := postJSON(t, srv, "/v1/models/default/explain",
		map[string]any{"features": x, "method": "intgrad"})
	wantStatus(t, resp2, http.StatusConflict)
	resp2.Body.Close()
	// Global method on the explain path → 409 pointing at the jobs API.
	resp3 := postJSON(t, srv, "/v1/models/default/explain",
		map[string]any{"features": x, "method": "pdp"})
	wantStatus(t, resp3, http.StatusConflict)
	if errBody := decode[map[string]string](t, resp3); !strings.Contains(errBody["error"], "job") {
		t.Fatalf("global-method error %q", errBody["error"])
	}
	// Unknown param key → 400, not silently ignored.
	resp4 := postJSON(t, srv, "/v1/models/default/explain",
		map[string]any{"features": x, "method": "lime", "params": map[string]any{"samplez": 10}})
	wantStatus(t, resp4, http.StatusBadRequest)
	resp4.Body.Close()
	// Invalid param *value* (bad counterfactual op) is a 400, not a 500.
	resp5 := postJSON(t, srv, "/v1/models/default/explain",
		map[string]any{"features": x, "method": "counterfactual", "params": map[string]any{"target_op": "=="}})
	wantStatus(t, resp5, http.StatusBadRequest)
	resp5.Body.Close()
	// A sample budget over the cap is a 400 naming it, before any storage
	// is sized to the request.
	resp6 := postJSON(t, srv, "/v1/models/default/explain",
		map[string]any{"features": x, "method": "kernelshap", "params": map[string]any{"samples": xai.MaxSamples + 1}})
	wantStatus(t, resp6, http.StatusBadRequest)
	if errBody := decode[map[string]string](t, resp6); !strings.Contains(errBody["error"], fmt.Sprint(xai.MaxSamples)) {
		t.Fatalf("sample-budget error %q does not name the cap", errBody["error"])
	}
	// A background too small for the anchor search is a 400, not a 500.
	resp7 := postJSON(t, srv, "/v1/models/default/explain",
		map[string]any{"features": x, "method": "anchors", "params": map[string]any{"background_size": 2}})
	wantStatus(t, resp7, http.StatusBadRequest)
	resp7.Body.Close()
}

// TestExplainParamsTopK: params.topk shapes the ranked output like the
// top-level field (which wins when both are present).
func TestExplainParamsTopK(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(New(p))
	defer srv.Close()

	x := p.Test.X[0]
	resp := postJSON(t, srv, "/v1/models/default/explain",
		map[string]any{"features": x, "params": map[string]any{"topk": 2}})
	wantStatus(t, resp, http.StatusOK)
	if got := decode[ExplainResponse](t, resp); len(got.Contributions) != 2 {
		t.Fatalf("params.topk: %d contributions", len(got.Contributions))
	}
	resp2 := postJSON(t, srv, "/v1/models/default/explain",
		map[string]any{"features": x, "topk": 4, "params": map[string]any{"topk": 2}})
	wantStatus(t, resp2, http.StatusOK)
	if got := decode[ExplainResponse](t, resp2); len(got.Contributions) != 4 {
		t.Fatalf("top-level topk should win: %d contributions", len(got.Contributions))
	}
}

// TestExplainTreeshapOnMLPConflicts pins the acceptance criterion's 409:
// treeshap requested against a model with no tree decomposition.
func TestExplainTreeshapOnMLPConflicts(t *testing.T) {
	ds, err := core.WebScenario().GenerateDataset(3, 1, telemetry.TargetBottleneckUtil)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := core.NewPipeline(core.ModelMLP, ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	mp.ShapSamples = 64
	srv := httptest.NewServer(New(mp))
	defer srv.Close()

	x := mp.Test.X[0]
	resp := postJSON(t, srv, "/v1/models/default/explain",
		map[string]any{"features": x, "method": "treeshap"})
	wantStatus(t, resp, http.StatusConflict)
	resp.Body.Close()
	// And intgrad works there (the MLP is differentiable through the
	// scaling wrapper).
	resp2 := postJSON(t, srv, "/v1/models/default/explain",
		map[string]any{"features": x, "method": "intgrad"})
	wantStatus(t, resp2, http.StatusOK)
	if got := decode[ExplainResponse](t, resp2); got.Method != "intgrad" {
		t.Fatalf("method %q", got.Method)
	}
}

func TestExplainEvaluateAttachesMetrics(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(New(p))
	defer srv.Close()

	x := p.Test.X[1]
	resp := postJSON(t, srv, "/v1/models/default/explain",
		map[string]any{"features": x, "evaluate": true})
	wantStatus(t, resp, http.StatusOK)
	got := decode[ExplainResponse](t, resp)
	if got.Evaluation == nil {
		t.Fatal("evaluate: true returned no evaluation")
	}
	// TreeSHAP satisfies local accuracy: additivity error ~ 0.
	if got.Evaluation.AdditivityError == nil {
		t.Fatal("additive method missing additivity_error")
	}
	if *got.Evaluation.AdditivityError > 1e-6 {
		t.Fatalf("treeshap additivity error %v", *got.Evaluation.AdditivityError)
	}
	if got.Evaluation.DeletionAUC == nil || *got.Evaluation.DeletionAUC <= 0 {
		t.Fatalf("deletion AUC %v", got.Evaluation.DeletionAUC)
	}
	// Non-additive encodings (anchors rules) omit additivity_error but
	// still report the ranking-based deletion AUC.
	respA := postJSON(t, srv, "/v1/models/default/explain",
		map[string]any{"features": x, "method": "anchors", "evaluate": true})
	wantStatus(t, respA, http.StatusOK)
	gotA := decode[ExplainResponse](t, respA)
	if gotA.Evaluation == nil || gotA.Evaluation.AdditivityError != nil {
		t.Fatalf("anchors evaluation %+v; additivity_error must be omitted", gotA.Evaluation)
	}
	if gotA.Evaluation.DeletionAUC == nil {
		t.Fatal("anchors evaluation missing deletion AUC")
	}
	// Without the flag the field is absent.
	resp2 := postJSON(t, srv, "/v1/models/default/explain", map[string]any{"features": x})
	wantStatus(t, resp2, http.StatusOK)
	if got2 := decode[ExplainResponse](t, resp2); got2.Evaluation != nil {
		t.Fatal("evaluation attached without evaluate: true")
	}
	// Batch bodies evaluate per instance.
	resp3 := postJSON(t, srv, "/v1/models/default/explain",
		map[string]any{"instances": p.Test.X[:2], "evaluate": true})
	wantStatus(t, resp3, http.StatusOK)
	got3 := decode[BatchExplainResponse](t, resp3)
	for i, e := range got3.Explanations {
		if e.Evaluation == nil {
			t.Fatalf("batch instance %d missing evaluation", i)
		}
	}
}

func TestWhatIfEndpoint(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(New(p))
	defer srv.Close()

	// Find a high-utilization instance to push down.
	var x []float64
	for _, row := range p.Test.X {
		if p.Model.Predict(row) > 0.8 {
			x = row
			break
		}
	}
	if x == nil {
		x = p.Test.X[0]
	}
	resp := postJSON(t, srv, "/v1/models/default/whatif", WhatIfRequest{
		Features:  x,
		Op:        "<=",
		Value:     0.4,
		Immutable: []string{"hour_sin", "hour_cos"},
	})
	wantStatus(t, resp, http.StatusOK)
	got := decode[WhatIfResponse](t, resp)
	if got.Valid && got.Prediction > 0.4 {
		t.Fatalf("valid counterfactual above target: %+v", got)
	}
	if got.Report == "" {
		t.Fatal("empty report")
	}
	// Bad op rejected.
	bad := postJSON(t, srv, "/whatif", WhatIfRequest{Features: x, Op: "!=", Value: 1})
	wantStatus(t, bad, http.StatusBadRequest)
	bad.Body.Close()
	// Wrong width rejected.
	short := postJSON(t, srv, "/whatif", WhatIfRequest{Features: []float64{1}, Op: "<=", Value: 1})
	wantStatus(t, short, http.StatusBadRequest)
	short.Body.Close()
	// Unknown immutable feature is a client error, not silently dropped.
	unk := postJSON(t, srv, "/v1/models/default/whatif", WhatIfRequest{
		Features: x, Op: "<=", Value: 0.4, Immutable: []string{"no_such_feature"},
	})
	wantStatus(t, unk, http.StatusBadRequest)
	unkBody := decode[map[string]string](t, unk)
	if !strings.Contains(unkBody["error"], "no_such_feature") {
		t.Fatalf("error %q does not name the unknown feature", unkBody["error"])
	}
}

func TestImportanceEndpoint(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(New(p))
	defer srv.Close()

	resp := getJSON(t, srv, "/v1/models/default/importance")
	wantStatus(t, resp, http.StatusOK)
	got := decode[ImportanceResponse](t, resp)
	d := p.Train.NumFeatures()
	if len(got.Shap) != d || len(got.Perm) != d || len(got.Features) != d {
		t.Fatalf("importance widths %d/%d/%d want %d", len(got.Shap), len(got.Perm), len(got.Features), d)
	}
	var total float64
	for _, v := range got.Shap {
		if v < 0 {
			t.Fatal("negative |SHAP| importance")
		}
		total += v
	}
	if total == 0 {
		t.Fatal("all-zero importance")
	}
	// The result is cached per pipeline: a second request must return the
	// identical vector (and, being cached, return fast).
	resp2 := getJSON(t, srv, "/importance")
	wantStatus(t, resp2, http.StatusOK)
	got2 := decode[ImportanceResponse](t, resp2)
	for j := range got.Shap {
		if got.Shap[j] != got2.Shap[j] {
			t.Fatalf("cached importance differs at %d", j)
		}
	}
}

// ─── registry lifecycle over the API ────────────────────────────────────

// gatedBuilder blocks builds until released so tests observe "training".
type gatedBuilder struct {
	mu      sync.Mutex
	release chan struct{}
	result  *core.Pipeline
	err     error
}

func (g *gatedBuilder) build(registry.Spec) (*core.Pipeline, error) {
	<-g.release
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.result, g.err
}

// newGatedServer returns a server whose default model is ready and whose
// registry trains via the gated builder.
func newGatedServer(t *testing.T, g *gatedBuilder) (*httptest.Server, *registry.Registry) {
	t.Helper()
	s := New(pipeline(t))
	s.Registry().Builder = g.build
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv, s.Registry()
}

// waitBuild waits for the background build of want to finish.
func waitBuild(t *testing.T, reg *registry.Registry, want string) {
	t.Helper()
	built, err := reg.Built(want)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-built:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %q", want)
	}
}

func TestCreateModelLifecycle(t *testing.T) {
	g := &gatedBuilder{release: make(chan struct{}), result: pipeline(t)}
	srv, reg := newGatedServer(t, g)

	// POST /v1/models → 202 with the entry in training.
	resp := postJSON(t, srv, "/v1/models", registry.Spec{Scenario: "nat", Model: "gbt", Target: "violation"})
	wantStatus(t, resp, http.StatusAccepted)
	info := decode[ModelInfo](t, resp)
	if info.Name != "nat/gbt/violation" || info.Status != "training" {
		t.Fatalf("created %+v", info)
	}

	// Serving it while training → 409; GET shows training.
	busy := postJSON(t, srv, "/v1/models/nat/gbt/violation/predict", map[string]any{"features": []float64{1}})
	wantStatus(t, busy, http.StatusConflict)
	busy.Body.Close()
	st := getJSON(t, srv, "/v1/models/nat/gbt/violation")
	wantStatus(t, st, http.StatusOK)
	if got := decode[ModelInfo](t, st); got.Status != "training" {
		t.Fatalf("mid-train status %q", got.Status)
	}

	// Duplicate create while training → 409.
	dup := postJSON(t, srv, "/v1/models", registry.Spec{Scenario: "nat", Model: "gbt", Target: "violation"})
	wantStatus(t, dup, http.StatusConflict)
	dup.Body.Close()

	// Release the build; the model flips to ready and serves.
	close(g.release)
	waitBuild(t, reg, "nat/gbt/violation")
	st2 := getJSON(t, srv, "/v1/models/nat/gbt/violation")
	got := decode[ModelInfo](t, st2)
	if got.Status != "ready" || got.ReadyAt.IsZero() {
		t.Fatalf("post-train %+v", got)
	}
	x := pipeline(t).Test.X[0]
	ok := postJSON(t, srv, "/v1/models/nat/gbt/violation/predict", map[string]any{"features": x})
	wantStatus(t, ok, http.StatusOK)
	ok.Body.Close()
}

func TestCreateModelValidation(t *testing.T) {
	srv := httptest.NewServer(New(pipeline(t)))
	defer srv.Close()

	// Unknown scenario/model/target → 400.
	for _, sp := range []registry.Spec{
		{Scenario: "moon", Model: "rf", Target: "util"},
		{Scenario: "web", Model: "svm", Target: "util"},
		{Scenario: "web", Model: "rf", Target: "loss"},
		{Name: "sneaky/predict", Scenario: "web", Model: "rf", Target: "util"},
		{Name: "un?addressable", Scenario: "web", Model: "rf", Target: "util"},
		{Name: "/lead", Scenario: "web", Model: "rf", Target: "util"},
		{Scenario: "web", Model: "rf", Target: "util", Hours: 1e9},
		{Scenario: "web", Model: "rf", Target: "util", Hours: -3},
	} {
		resp := postJSON(t, srv, "/v1/models", sp)
		wantStatus(t, resp, http.StatusBadRequest)
		resp.Body.Close()
	}
	// Malformed JSON → 400.
	resp, err := http.Post(srv.URL+"/v1/models", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusBadRequest)
	resp.Body.Close()
	// Duplicate of the ready default → 409.
	dup := postJSON(t, srv, "/v1/models", registry.Spec{Name: "default", Scenario: "web", Model: "rf", Target: "util"})
	wantStatus(t, dup, http.StatusConflict)
	dup.Body.Close()
}

func TestFailedBuildReported(t *testing.T) {
	g := &gatedBuilder{release: make(chan struct{}), err: fmt.Errorf("sim exploded")}
	srv, reg := newGatedServer(t, g)

	resp := postJSON(t, srv, "/v1/models", registry.Spec{Scenario: "web", Model: "gbt", Target: "latency"})
	wantStatus(t, resp, http.StatusAccepted)
	resp.Body.Close()
	close(g.release)
	waitBuild(t, reg, "web/gbt/latency")

	st := getJSON(t, srv, "/v1/models/web/gbt/latency")
	got := decode[ModelInfo](t, st)
	if got.Status != "failed" || !strings.Contains(got.Error, "sim exploded") {
		t.Fatalf("failed entry %+v", got)
	}
	// A failed model is registered but unservable → 409.
	busy := postJSON(t, srv, "/v1/models/web/gbt/latency/predict", map[string]any{"features": []float64{1}})
	wantStatus(t, busy, http.StatusConflict)
	busy.Body.Close()

	// A failed name is reclaimable: re-POSTing retrains (202), it is not
	// squatted forever by the dead build.
	g.mu.Lock()
	g.err, g.result = nil, pipeline(t)
	g.mu.Unlock()
	retry := postJSON(t, srv, "/v1/models", registry.Spec{Scenario: "web", Model: "gbt", Target: "latency"})
	wantStatus(t, retry, http.StatusAccepted)
	retry.Body.Close()
	waitBuild(t, reg, "web/gbt/latency")
	st2 := getJSON(t, srv, "/v1/models/web/gbt/latency")
	if got := decode[ModelInfo](t, st2); got.Status != "ready" {
		t.Fatalf("after retry: %+v", got)
	}
}

// TestHealthDegraded checks that /healthz holds traffic (503) while the
// default model is unservable and recovers once it trains.
func TestHealthDegraded(t *testing.T) {
	g := &gatedBuilder{release: make(chan struct{}), result: pipeline(t)}
	reg := registry.New()
	reg.Builder = g.build
	if _, err := reg.Create(registry.Spec{Scenario: "web", Model: "rf", Target: "util"}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(reg))
	defer srv.Close()

	resp := getJSON(t, srv, "/healthz")
	wantStatus(t, resp, http.StatusServiceUnavailable)
	h := decode[HealthResponse](t, resp)
	if h.Status != "degraded" || h.Ready != 0 || h.Models != 1 {
		t.Fatalf("degraded health %+v", h)
	}

	close(g.release)
	waitBuild(t, reg, "web/rf/util")
	resp2 := getJSON(t, srv, "/healthz")
	wantStatus(t, resp2, http.StatusOK)
	if h2 := decode[HealthResponse](t, resp2); h2.Status != "ok" || h2.Ready != 1 {
		t.Fatalf("recovered health %+v", h2)
	}
}

// TestConcurrentServingDuringTraining checks the hot-swap: the ready
// default keeps serving while another model trains and swaps in.
func TestConcurrentServingDuringTraining(t *testing.T) {
	g := &gatedBuilder{release: make(chan struct{}), result: pipeline(t)}
	srv, reg := newGatedServer(t, g)

	resp := postJSON(t, srv, "/v1/models", registry.Spec{Scenario: "web", Model: "cart", Target: "util"})
	wantStatus(t, resp, http.StatusAccepted)
	resp.Body.Close()

	x := pipeline(t).Test.X[0]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r := postJSON(t, srv, "/predict", map[string]any{"features": x})
				if r.StatusCode != http.StatusOK {
					t.Errorf("default predict during training: %d", r.StatusCode)
					r.Body.Close()
					return
				}
				r.Body.Close()
			}
		}()
	}
	close(g.release)
	waitBuild(t, reg, "web/cart/util")
	close(stop)
	wg.Wait()

	// Both models now serve from one process.
	for _, name := range []string{"default", "web/cart/util"} {
		r := postJSON(t, srv, "/v1/models/"+name+"/predict", map[string]any{"features": x})
		wantStatus(t, r, http.StatusOK)
		r.Body.Close()
	}
}

// ─── legacy-alias parity ────────────────────────────────────────────────

func TestLegacyAliasParity(t *testing.T) {
	p := pipeline(t)
	srv := httptest.NewServer(New(p))
	defer srv.Close()

	x := p.Test.X[2]
	pairs := []struct {
		legacy, v1 string
		body       any
	}{
		{"/schema", "/v1/models/default/schema", nil},
		{"/importance", "/v1/models/default/importance", nil},
		{"/predict", "/v1/models/default/predict", map[string]any{"features": x}},
		{"/explain", "/v1/models/default/explain", map[string]any{"features": x, "topk": 3}},
		{"/whatif", "/v1/models/default/whatif", WhatIfRequest{Features: x, Op: "<=", Value: 0.4}},
	}
	for _, pr := range pairs {
		read := func(path string) string {
			var resp *http.Response
			if pr.body == nil {
				resp = getJSON(t, srv, path)
			} else {
				resp = postJSON(t, srv, path, pr.body)
			}
			wantStatus(t, resp, http.StatusOK)
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		legacy, v1 := read(pr.legacy), read(pr.v1)
		if legacy != v1 {
			t.Fatalf("%s and %s disagree:\n%s\nvs\n%s", pr.legacy, pr.v1, legacy, v1)
		}
	}
}
