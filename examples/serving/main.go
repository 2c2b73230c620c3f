// Serving: stand up the versioned multi-model explanation API in-process,
// train a second model through it at runtime, and drive every v1 endpoint
// the way an operator dashboard would (see API.md for the curl forms).
//
//	go run ./examples/serving
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"nfvxai/internal/registry"
	"nfvxai/internal/serve"
)

func main() {
	// 1. Boot a node whose startup model (a small web-scenario random
	//    forest) trains synchronously and becomes the default, exactly
	//    like `explaind -model web:rf:util:1`.
	spec, err := registry.ParseSpec("web:rf:util:1")
	if err != nil {
		log.Fatal(err)
	}
	node, err := serve.Open(serve.Config{Models: []registry.Spec{spec}})
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()
	reg := node.Registry()
	p, err := reg.Lookup(spec.Name)
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(node)
	defer srv.Close()

	// 2. Grow the registry at runtime: POST /v1/models answers 202 and the
	//    NAT violation classifier trains in a background goroutine.
	fmt.Println("POST /v1/models → training nat/gbt/violation in the background")
	post(srv, "/v1/models", map[string]any{
		"scenario": "nat", "model": "gbt", "target": "violation", "hours": 1,
	})

	// 3. Meanwhile the default model serves. Batch-explain eight epochs in
	//    one request over the cached explainer.
	var batch struct {
		Method       string `json:"method"`
		Count        int    `json:"count"`
		Explanations []struct {
			Prediction    float64 `json:"prediction"`
			Contributions []struct {
				Feature string  `json:"feature"`
				Phi     float64 `json:"phi"`
			} `json:"contributions"`
		} `json:"explanations"`
	}
	post(srv, "/v1/models/web/rf/util/explain",
		map[string]any{"instances": p.Test.X[:8], "topk": 3}, &batch)
	fmt.Printf("batch explain: %d instances via %s; first: pred %.3f, top feature %s (φ %+.3f)\n",
		batch.Count, batch.Method,
		batch.Explanations[0].Prediction,
		batch.Explanations[0].Contributions[0].Feature,
		batch.Explanations[0].Contributions[0].Phi)

	// 3b. The explanation plane is pluggable per request: list the methods
	//     valid for this model, then explain the same epoch with LIME and
	//     compare faithfulness via "evaluate".
	var methods struct {
		DefaultMethod string `json:"default_method"`
		Explainers    []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
		} `json:"explainers"`
	}
	get(srv, "/v1/models/web/rf/util/explainers", &methods)
	fmt.Printf("explainers (default %s):", methods.DefaultMethod)
	for _, m := range methods.Explainers {
		fmt.Printf(" %s[%s]", m.Name, m.Kind)
	}
	fmt.Println()

	var compared struct {
		Method     string `json:"method"`
		Evaluation struct {
			AdditivityError float64 `json:"additivity_error"`
			DeletionAUC     float64 `json:"deletion_auc"`
		} `json:"evaluation"`
	}
	post(srv, "/v1/models/web/rf/util/explain", map[string]any{
		"features": p.Test.X[0], "evaluate": true,
	}, &compared)
	fmt.Printf("default %s: additivity err %.2e, deletion AUC %.4f\n",
		compared.Method, compared.Evaluation.AdditivityError, compared.Evaluation.DeletionAUC)
	post(srv, "/v1/models/web/rf/util/explain", map[string]any{
		"features": p.Test.X[0], "method": "lime",
		"params":   map[string]any{"samples": 500, "seed": 7},
		"evaluate": true,
	}, &compared)
	fmt.Printf("lime:            additivity err %.2e, deletion AUC %.4f\n",
		compared.Evaluation.AdditivityError, compared.Evaluation.DeletionAUC)

	// 3c. Expensive global work goes through the async jobs API: submit a
	//     global-importance job and poll it to completion.
	var job struct {
		ID       string  `json:"id"`
		Status   string  `json:"status"`
		Progress float64 `json:"progress"`
		Result   struct {
			Features []string  `json:"features"`
			Shap     []float64 `json:"shap"`
		} `json:"result"`
	}
	post(srv, "/v1/models/web/rf/util/jobs", map[string]any{"kind": "global-importance"}, &job)
	fmt.Printf("job %s submitted (%s)\n", job.ID, job.Status)
	for job.Status == "pending" || job.Status == "running" {
		time.Sleep(50 * time.Millisecond)
		get(srv, "/v1/jobs/"+job.ID, &job)
	}
	top, topV := "", 0.0
	for i, v := range job.Result.Shap {
		if v > topV {
			top, topV = job.Result.Features[i], v
		}
	}
	fmt.Printf("job %s %s: top global feature %s (mean |SHAP| %.4f)\n", job.ID, job.Status, top, topV)

	// 4. Wait for the background build, then list both live models.
	built, _ := reg.Built("nat/gbt/violation") // registered by the POST above
	<-built
	fmt.Println("background build finished: nat/gbt/violation")
	var list struct {
		Default string `json:"default"`
		Models  []struct {
			Name   string `json:"name"`
			Status string `json:"status"`
			Task   string `json:"task"`
		} `json:"models"`
	}
	get(srv, "/v1/models", &list)
	for _, m := range list.Models {
		def := ""
		if m.Name == list.Default {
			def = "  (default — legacy /predict etc. alias here)"
		}
		fmt.Printf("  %-20s %-8s %s%s\n", m.Name, m.Status, m.Task, def)
	}

	// 5. Query the freshly trained model from the same process.
	var health struct {
		Models int `json:"models"`
		Ready  int `json:"ready"`
	}
	get(srv, "/healthz", &health)
	fmt.Printf("healthz: %d/%d models ready — one process, many deployments\n", health.Ready, health.Models)
}

func post(srv *httptest.Server, path string, body any, out ...any) {
	buf, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		log.Fatalf("POST %s: status %d", path, resp.StatusCode)
	}
	if len(out) > 0 {
		if err := json.NewDecoder(resp.Body).Decode(out[0]); err != nil {
			log.Fatal(err)
		}
	}
}

func get(srv *httptest.Server, path string, out any) {
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
