package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"sync"
	"testing"
	"time"

	"nfvxai/internal/core"
	"nfvxai/internal/nfv/telemetry"
	"nfvxai/internal/registry"
	"nfvxai/internal/xai/xcache"
)

// fuzzDeadline bounds each fuzzed request, so no input runs long: model
// work past it answers the table's 504.
const fuzzDeadline = time.Second

// The fuzz target's models: a linear model and a random forest on the
// web/util schema, trained once per process. They are not the shared
// pipeline(t) fixture because every input attaches a fresh result cache
// to them.
const (
	fuzzForestName = "web/rf/util"
	fuzzLinearName = "web/linear/util"
)

var (
	fuzzOnce               sync.Once
	fuzzForest, fuzzLinear *core.Pipeline
)

func fuzzPipelines(tb testing.TB) (forest, linear *core.Pipeline) {
	tb.Helper()
	fuzzOnce.Do(func() {
		ds, err := core.WebScenario().GenerateDataset(1, 1, telemetry.TargetBottleneckUtil)
		if err != nil {
			tb.Fatal(err)
		}
		train := func(kind core.ModelKind) *core.Pipeline {
			p, err := core.NewPipeline(kind, ds, 2)
			if err != nil {
				tb.Fatal(err)
			}
			p.ShapSamples = 64
			return p
		}
		fuzzForest, fuzzLinear = train(core.ModelForest), train(core.ModelLinear)
	})
	if fuzzForest == nil || fuzzLinear == nil {
		tb.Fatal("fuzz pipelines failed to train")
	}
	return fuzzForest, fuzzLinear
}

// fuzzServer builds the server one input runs against: the forest as
// the default model, the linear model beside it, and a result cache.
func fuzzServer(tb testing.TB) *Server {
	forest, linear := fuzzPipelines(tb)
	reg := registry.New()
	reg.UseExplainCache(xcache.New(xcache.Config{MaxBytes: 1 << 20}))
	for _, m := range []struct {
		name string
		p    *core.Pipeline
	}{{fuzzForestName, forest}, {fuzzLinearName, linear}} {
		if _, err := reg.AddReady(registry.Spec{Name: m.name}, m.p, time.Now()); err != nil {
			tb.Fatal(err)
		}
	}
	return NewServer(reg)
}

// fuzzRoutes are the mux patterns FuzzServeAPI drives. The others start
// background work or hold the connection open (POST /v1/models, jobs,
// experiments, feeds) and stay with their own tests, as do the jobs and
// stream actions under a model.
var fuzzRoutes = map[string]bool{
	"GET /v1/models":            true,
	"GET /v1/models/{rest...}":  true,
	"POST /v1/models/{rest...}": true,
	"POST " + importPath:        true,
	"GET /v1/scenarios":         true,
	"POST /v1/scenarios":        true,
	"GET /v1/scenarios/{name}":  true,
	"GET /readyz":               true,
	"GET /v1/cachez":            true,
	"GET /healthz":              true,
	"GET /schema":               true,
	"GET /importance":           true,
	"POST /predict":             true,
	"POST /explain":             true,
	"POST /whatif":              true,
}

// fuzzCovered reports whether s routes r to one of fuzzRoutes, or to
// no pattern at all (the server's own 404 and 405). A path the mux must
// clean first is answered by the mux's own redirect, not by the API, so
// it is out of scope.
func fuzzCovered(s *Server, r *http.Request) bool {
	if _, pattern := s.mux.Handler(r); pattern != "" && !fuzzRoutes[pattern] {
		return false
	}
	p := r.URL.EscapedPath()
	clean := path.Clean(p)
	if strings.HasSuffix(p, "/") && clean != "/" {
		clean += "/"
	}
	if clean != p {
		return false
	}
	rest, scoped := strings.CutPrefix(r.URL.Path, "/v1/models/")
	return !scoped || !(strings.HasSuffix(rest, "/jobs") || strings.HasSuffix(rest, "/stream"))
}

// withNoCache sets "no_cache": true on a JSON object body.
func withNoCache(body []byte) []byte {
	var obj map[string]json.RawMessage
	if json.Unmarshal(body, &obj) != nil || obj == nil {
		return body
	}
	obj["no_cache"] = json.RawMessage("true")
	out, err := json.Marshal(obj)
	if err != nil {
		return body
	}
	return out
}

// FuzzServeAPI holds the error-to-status contract over every route whose
// work ends with its request. Whatever the method, path, body,
// X-Budget-Ms header and no_cache flag, each reply carries X-Request-Id,
// is never a 500 or a 502, and is one JSON value (the artifact export's
// octet-stream 200 aside); a non-2xx reply holds "error" and a
// "request_id" equal to the header. A finding is fixed by typing the
// error the reply carried, never by loosening these checks.
func FuzzServeAPI(f *testing.F) {
	forest, linear := fuzzPipelines(f)
	x, x2 := forest.Test.X[0], forest.Test.X[1]
	artifact, err := registry.EncodeArtifact(registry.Spec{Name: fuzzLinearName}, linear)
	if err != nil {
		f.Fatal(err)
	}
	const rf, lin = "/v1/models/" + fuzzForestName, "/v1/models/" + fuzzLinearName
	whatIf := WhatIfRequest{Features: x, Op: "<=", Value: 0.4, Immutable: []string{"hour_sin", "hour_cos"}}
	for _, sd := range []struct {
		method, target string
		body           any
		budgetMs       string
	}{
		{"GET", "/healthz", nil, ""},
		{"GET", "/readyz", nil, ""},
		{"GET", "/v1/cachez", nil, ""},
		{"GET", "/v1/models", nil, ""},
		{"GET", rf, nil, ""},
		{"GET", rf + "/schema", nil, ""},
		{"GET", rf + "/explainers", nil, ""},
		{"GET", lin + "/importance", nil, "50"},
		{"GET", lin + "/artifact", nil, ""},
		{"GET", "/schema", nil, ""},
		{"GET", "/importance", nil, ""},
		{"GET", "/v1/scenarios", nil, ""},
		{"GET", "/v1/scenarios/web", nil, ""},
		{"POST", "/v1/scenarios", edgeSpec(), ""},
		{"POST", rf + "/predict", map[string]any{"features": x}, ""},
		{"POST", lin + "/predict", map[string]any{"instances": [][]float64{x, x2}}, ""},
		{"POST", "/predict", map[string]any{"features": x}, ""},
		{"POST", rf + "/explain", map[string]any{"features": x, "topk": 3}, ""},
		{"POST", rf + "/explain", map[string]any{"features": x, "method": "kernelshap", "params": map[string]any{"samples": 64}}, "100"},
		{"POST", rf + "/explain", map[string]any{"features": x, "method": "lime", "params": map[string]any{"samples": 100, "seed": 9}}, ""},
		{"POST", rf + "/explain", map[string]any{"features": x, "method": "anchors"}, ""},
		{"POST", rf + "/explain", map[string]any{"features": x, "method": "counterfactual", "params": map[string]any{"target_op": "<="}}, ""},
		{"POST", rf + "/explain", map[string]any{"instances": [][]float64{x, x2}, "evaluate": true}, ""},
		{"POST", lin + "/explain", map[string]any{"features": x, "method": "intgrad", "budget_ms": 50}, ""},
		{"POST", "/explain", map[string]any{"features": x, "params": map[string]any{"topk": 2}}, ""},
		{"POST", rf + "/whatif", whatIf, ""},
		{"POST", "/whatif", whatIf, "50"},
		{"GET", "/predict", nil, ""},         // 405: POST only
		{"GET", "/v1/nothing-here", nil, ""}, // 404: no pattern
	} {
		var body []byte
		if sd.body != nil {
			if body, err = json.Marshal(sd.body); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(sd.method, sd.target, body, sd.budgetMs, false)
		if sd.method == http.MethodPost && sd.target != "/v1/scenarios" {
			f.Add(sd.method, sd.target, body, sd.budgetMs, true)
		}
	}
	f.Add("POST", importPath+"?name=copy", artifact, "", false)

	f.Fuzz(func(t *testing.T, method, target string, body []byte, budgetMs string, noCache bool) {
		if !strings.HasPrefix(target, "/") {
			return
		}
		if noCache {
			body = withNoCache(body)
		}
		ctx, cancel := context.WithTimeout(context.Background(), fuzzDeadline)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, method, "http://fuzz.invalid"+target, bytes.NewReader(body))
		if err != nil {
			return
		}
		if budgetMs != "" {
			req.Header.Set("X-Budget-Ms", budgetMs)
		}
		s := fuzzServer(t)
		defer s.Close()
		if !fuzzCovered(s, req) {
			return
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)

		what := method + " " + target
		rid := rec.Header().Get(HeaderRequestID)
		if rid == "" {
			t.Fatalf("%s: reply carries no %s", what, HeaderRequestID)
		}
		if rec.Code == http.StatusInternalServerError || rec.Code == http.StatusBadGateway {
			t.Fatalf("%s: untyped %d: %s", what, rec.Code, rec.Body.Bytes())
		}
		if rec.Code == http.StatusOK && strings.HasSuffix(req.URL.Path, "/artifact") &&
			rec.Header().Get("Content-Type") == "application/octet-stream" {
			return
		}
		if !json.Valid(rec.Body.Bytes()) || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s: %d reply is not one JSON value: %q", what, rec.Code, rec.Body.Bytes())
		}
		if rec.Code >= 200 && rec.Code < 300 {
			return
		}
		var reply struct {
			Error     string `json:"error"`
			RequestID string `json:"request_id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply.Error == "" || reply.RequestID != rid {
			t.Fatalf("%s: %d reply %s lacks an error or request_id %q", what, rec.Code, rec.Body.Bytes(), rid)
		}
	})
}
