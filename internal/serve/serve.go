// Package serve implements the versioned, multi-model explanation service:
// a JSON-over-HTTP API exposing a registry of trained NFV predictors
// together with their explanations — per-prediction attributions (single
// and batch), global importance, and counterfactual what-if queries. This
// is the integration point an operator dashboard would consume.
//
// The v1 surface is model-scoped:
//
//	GET  /v1/models                        list models and their lifecycle status
//	POST /v1/models                        train a new scenario×model×target (async, 202)
//	GET  /v1/models/{name}                 one model's status and schema
//	GET  /v1/models/{name}/schema          feature schema
//	GET  /v1/models/{name}/explainers      explanation methods valid for the model
//	GET  /v1/models/{name}/importance      global |SHAP| + permutation importance (cached)
//	POST /v1/models/{name}/predict         predict one instance, or a batch via "instances"
//	POST /v1/models/{name}/explain         attribute one instance, or a batch via "instances"
//	POST /v1/models/{name}/whatif          counterfactual remediation query
//	POST /v1/models/{name}/jobs            submit an async explanation job (202)
//	GET  /v1/models/{name}/jobs            jobs submitted against the model
//
// Explain requests select their method per request: an optional "method"
// names any registered local method ("treeshap", "kernelshap", "lime",
// "anchors", "counterfactual", "intgrad") and "params" carries its typed
// options. Unknown methods or parameters are a 400; a capability mismatch
// (e.g. treeshap on an MLP, or a global method on the explain path) is a
// 409. Without "method" the model's default explainer answers, unchanged
// from the pre-registry behavior.
//
// Expensive global explanations run asynchronously through the jobs
// subsystem, mirroring the training lifecycle:
//
//	GET    /v1/jobs                        list jobs
//	GET    /v1/jobs/{id}                   status, progress, result
//	DELETE /v1/jobs/{id}                   cancel a pending/running job
//
// Model names may contain slashes (the default is scenario/model/target,
// e.g. web/rf/util). POST /v1/models returns 202 Accepted immediately; the
// model trains in the background and flips training → ready (or failed),
// observable via GET /v1/models/{name}. Serving a model that is still
// training yields 409, an unknown model 404, a malformed request 400, a
// body over its cap 413, and a reply JSON cannot carry (a non-finite
// prediction) 422. One table maps every typed error to its status
// (errors.go), so a status means the same on every route.
//
// The legacy unversioned endpoints (GET /healthz /schema /importance,
// POST /predict /explain /whatif) remain as thin aliases onto the
// registry's default model.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"nfvxai/internal/cluster"
	"nfvxai/internal/core"
	"nfvxai/internal/feed"
	"nfvxai/internal/registry"
	"nfvxai/internal/xai"
	"nfvxai/internal/xai/counterfactual"
	"nfvxai/internal/xai/evalx"
)

// MaxBatch bounds how many instances one batch-explain request may carry.
const MaxBatch = 256

// Server routes the v1 multi-model API over a model registry.
type Server struct {
	reg  *registry.Registry
	mux  *http.ServeMux
	jobs *jobStore
	hub  *feed.Hub
	// gate caps total explain fan-out across ALL concurrent batch
	// requests at GOMAXPROCS slots.
	gate chan struct{}

	// DefaultBudgetMs is the latency budget applied to explain/whatif/
	// importance requests that carry no budget of their own (0 = none:
	// requests run unbounded, the pre-budget behavior).
	DefaultBudgetMs int

	// Admission knobs (admission.go): per-model concurrency budget, wait
	// queue depth, and queue patience. Zero values take the defaults. Set
	// before the first request; the table is sized once, lazily.
	MaxInflight int
	AdmitQueue  int
	AdmitWait   time.Duration

	// NodeID names this node in X-Served-By and health replies, with or
	// without a ring, so single nodes can be told apart behind a load
	// balancer. Set before the first request.
	NodeID string

	// Cluster plane (cluster.go), wired only by Open: with a ring this
	// server is one node of a sharded fleet — model-scoped requests are
	// reverse-proxied to their consistent-hash owner (logging failed hops
	// and fallbacks), and /healthz reports ring ownership, peer liveness
	// and the sync loop's lag.
	ring   *cluster.Cluster
	syncer *cluster.Syncer

	proxyOnce sync.Once
	proxy     *http.Client

	admitOnce sync.Once
	adm       *admission

	// attachments index the streaming monitors by feed name (feeds.go).
	attachMu    sync.Mutex
	attachments map[string][]*attachment

	closeOnce sync.Once
}

// NewServer builds the API server over an existing registry.
func NewServer(reg *registry.Registry) *Server {
	s := &Server{
		reg:         reg,
		mux:         http.NewServeMux(),
		jobs:        newJobStore(),
		hub:         feed.NewHub(),
		gate:        make(chan struct{}, runtime.GOMAXPROCS(0)),
		attachments: map[string][]*attachment{},
	}
	s.hub.Max = MaxFeeds
	// Persisted experiment matrices are keyed by job id, and job ids
	// restart from 1 in every process: advance the sequence past any ids
	// already in the store so a post-restart experiment cannot mint a
	// colliding id and silently overwrite a prior sweep's matrix.
	if st := reg.StoreBackend(); st != nil {
		if ids, err := st.ListExperiments(); err == nil {
			for _, id := range ids {
				var n int
				if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > s.jobs.seq {
					s.jobs.seq = n
				}
			}
		}
	}
	// v1, model-scoped. {rest...} (not {name}) because model names contain
	// slashes; routeModel* peel a trailing action segment off themselves.
	s.mux.HandleFunc("GET /v1/models", s.handleListModels)
	s.mux.HandleFunc("POST /v1/models", s.handleCreateModel)
	s.mux.HandleFunc("GET /v1/models/{rest...}", s.routeModelGet)
	s.mux.HandleFunc("POST /v1/models/{rest...}", s.routeModelPost)

	// Artifact import: the explicit pattern wins over the {rest...}
	// wildcard, and "import" is a reserved trailing segment, so no model
	// route is shadowed.
	s.mux.HandleFunc("POST "+importPath, s.handleImportModel)

	// The explanation-jobs subsystem (jobs.go).
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleDeleteJob)

	// The experiment runner (experiments.go).
	s.mux.HandleFunc("POST /v1/experiments", s.handleCreateExperiment)
	s.mux.HandleFunc("GET /v1/experiments", s.handleListExperiments)
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.handleGetExperiment)

	// The streaming plane: scenario catalog and live feeds (feeds.go).
	s.mux.HandleFunc("GET /v1/scenarios", s.handleListScenarios)
	s.mux.HandleFunc("POST /v1/scenarios", s.handleCreateScenario)
	s.mux.HandleFunc("GET /v1/scenarios/{name}", s.handleGetScenario)
	s.mux.HandleFunc("GET /v1/feeds", s.handleListFeeds)
	s.mux.HandleFunc("POST /v1/feeds", s.handleCreateFeed)
	s.mux.HandleFunc("GET /v1/feeds/{name}", s.handleGetFeed)
	s.mux.HandleFunc("DELETE /v1/feeds/{name}", s.handleDeleteFeed)
	s.mux.HandleFunc("POST /v1/feeds/{name}/records", s.handleIngest)
	s.mux.HandleFunc("POST /v1/feeds/{name}/attach", s.handleAttach)

	// Health pair: /healthz (liveness + summary) and /readyz (per-model
	// readiness detail; health.go).
	s.mux.HandleFunc("GET /readyz", s.handleReady)

	// The explanation result cache's observability surface (cachez.go).
	s.mux.HandleFunc("GET /v1/cachez", s.handleCachez)

	// Legacy unversioned aliases onto the default model.
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /schema", s.aliasGet(s.handleSchema))
	s.mux.HandleFunc("GET /importance", s.aliasGet(s.handleImportance))
	s.mux.HandleFunc("POST /predict", s.aliasPost(s.handlePredict))
	s.mux.HandleFunc("POST /explain", s.aliasPost(s.handleExplain))
	s.mux.HandleFunc("POST /whatif", s.aliasPost(s.handleWhatIf))
	return s
}

// Close shuts the serving planes down in dependency order: feeds stop
// first (draining the attached monitors, so no new drift-retrain jobs
// can be submitted), then every pending/running job is cancelled AND
// waited for — an in-flight retrain or experiment finishes flushing its
// artifact/matrix to the store before Close returns, so a SIGTERM never
// leaves a torn manifest behind. Idempotent and safe to call while
// requests are in flight — graceful shutdown calls it after
// http.Server.Shutdown returns.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.hub.CloseAll()
		s.attachMu.Lock()
		var mons []*attachment
		for name, atts := range s.attachments {
			mons = append(mons, atts...)
			delete(s.attachments, name)
		}
		s.attachMu.Unlock()
		for _, att := range mons {
			att.mon.Stop()
		}
		s.jobs.cancelAllAndWait()
	})
}

// New wraps a single already-trained pipeline as a one-model server — the
// pre-registry constructor, kept for embedders and tests. The model is
// registered as "default".
func New(p *core.Pipeline) *Server {
	reg := registry.New()
	if _, err := reg.AddReady(registry.Spec{Name: "default"}, p, time.Now()); err != nil {
		panic(err) // fresh registry; cannot collide
	}
	return NewServer(reg)
}

// Registry returns the server's model registry.
func (s *Server) Registry() *registry.Registry { return s.reg }

// ServeHTTP implements http.Handler. Every request gets a request id —
// minted here unless the client (or the proxying peer node) already
// supplied one — echoed on the response and kept on r.Header so a proxy
// hop forwards the same id. X-Served-By names this node so multi-node
// traces show which registry answered. No handler reads more than
// MaxJSONBytes of a request body (MaxArtifactBytes on artifact import):
// past that, reads fail with an *http.MaxBytesError, which every route
// answers 413 (errors.go). A request no pattern applies to gets the
// API's JSON error, not the mux's plain text: a 404, or a 405 keeping
// the mux's Allow header. The mux's redirect to a clean path stays its
// own.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, bodyLimit(r))
	}
	rid := r.Header.Get(HeaderRequestID)
	if rid == "" {
		rid = newRequestID()
		r.Header.Set(HeaderRequestID, rid)
	}
	w.Header().Set(HeaderRequestID, rid)
	if s.NodeID != "" {
		w.Header().Set(HeaderServedBy, s.NodeID)
	}
	if h, pattern := s.mux.Handler(r); pattern == "" {
		h.ServeHTTP(&muxErrorWriter{ResponseWriter: w, r: r}, r)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// modelActions are the reserved trailing path segments under a model.
var modelGetActions = map[string]bool{"schema": true, "importance": true, "explainers": true, "jobs": true, "stream": true, "artifact": true}
var modelPostActions = map[string]bool{"predict": true, "explain": true, "whatif": true, "jobs": true}

// splitAction splits "web/rf/util/predict" into ("web/rf/util", "predict")
// when the last segment is in actions, else returns (rest, "").
func splitAction(rest string, actions map[string]bool) (name, action string) {
	if i := strings.LastIndexByte(rest, '/'); i >= 0 && actions[rest[i+1:]] {
		return rest[:i], rest[i+1:]
	}
	return rest, ""
}

func (s *Server) routeModelGet(w http.ResponseWriter, r *http.Request) {
	name, action := splitAction(r.PathValue("rest"), modelGetActions)
	if s.proxyToOwner(w, r, name, action) {
		return
	}
	switch action {
	case "schema":
		s.handleSchema(w, r, name)
	case "importance":
		s.handleImportance(w, r, name)
	case "explainers":
		s.handleExplainers(w, r, name)
	case "jobs":
		s.handleListModelJobs(w, r, name)
	case "stream":
		s.handleModelStream(w, r, name)
	case "artifact":
		s.handleExportModel(w, r, name)
	default:
		s.handleModelInfo(w, r, name)
	}
}

func (s *Server) routeModelPost(w http.ResponseWriter, r *http.Request) {
	name, action := splitAction(r.PathValue("rest"), modelPostActions)
	if s.proxyToOwner(w, r, name, action) {
		return
	}
	switch action {
	case "predict":
		s.handlePredict(w, r, name)
	case "explain":
		s.handleExplain(w, r, name)
	case "whatif":
		s.handleWhatIf(w, r, name)
	case "jobs":
		s.handleCreateJob(w, r, name)
	default:
		writeError(w, http.StatusNotFound, "unknown action: POST /v1/models/{name}/{predict|explain|whatif|jobs}")
	}
}

// aliasGet adapts a model-scoped GET handler to a legacy unversioned
// route serving the registry's default model.
func (s *Server) aliasGet(h func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name, ok := s.defaultModel(w)
		if !ok {
			return
		}
		h(w, r, name)
	}
}

func (s *Server) aliasPost(h func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return s.aliasGet(h) // same adaptation; split for call-site clarity
}

func (s *Server) defaultModel(w http.ResponseWriter) (string, bool) {
	name := s.reg.DefaultName()
	if name == "" {
		writeError(w, http.StatusNotFound, "no models registered")
		return "", false
	}
	return name, true
}

// lookup resolves name to a servable pipeline, answering the registry's
// error (unknown → 404, training/failed → 409) when it cannot.
func (s *Server) lookup(w http.ResponseWriter, name string) (*core.Pipeline, bool) {
	p, err := s.reg.Lookup(name)
	if err != nil {
		writeErr(w, err)
		return nil, false
	}
	return p, true
}

// writeJSON encodes v before it commits the status, so a reply JSON
// cannot carry (a non-finite prediction or attribution) answers a JSON
// 422 instead of the status with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		writeError(w, http.StatusUnprocessableEntity, "reply is not representable as JSON: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// featureName is the one shared feature-index → display-name resolution
// used by every handler that renders per-feature output.
func featureName(names []string, j int) string {
	if j >= 0 && j < len(names) {
		return names[j]
	}
	return fmt.Sprintf("f%d", j)
}

// ─── registry endpoints ─────────────────────────────────────────────────

// ModelInfo is one registry entry as served by the API.
type ModelInfo struct {
	Name      string    `json:"name"`
	Scenario  string    `json:"scenario,omitempty"`
	Model     string    `json:"model,omitempty"`
	Target    string    `json:"target,omitempty"`
	Hours     float64   `json:"hours,omitempty"`
	Seed      int64     `json:"seed,omitempty"`
	Status    string    `json:"status"`
	Error     string    `json:"error,omitempty"`
	CreatedAt time.Time `json:"created_at"`
	// ReadyAt is the zero time until the model leaves training; it moves
	// forward each time a streaming retrain hot-swaps the pipeline.
	ReadyAt time.Time `json:"ready_at"`
	// Retrains counts drift-triggered (and manual) hot-swap retrains.
	Retrains int `json:"retrains,omitempty"`
	// Kind/Task/Features describe the live pipeline (ready models only).
	Kind     string   `json:"kind,omitempty"`
	Task     string   `json:"task,omitempty"`
	Features []string `json:"features,omitempty"`
}

func modelInfo(e registry.Entry) ModelInfo {
	info := ModelInfo{
		Name:      e.Spec.Name,
		Scenario:  e.Spec.Scenario,
		Model:     e.Spec.Model,
		Target:    e.Spec.Target,
		Hours:     e.Spec.Hours,
		Seed:      e.Spec.Seed,
		Status:    e.Status.String(),
		Error:     e.Err,
		CreatedAt: e.CreatedAt,
		ReadyAt:   e.ReadyAt,
		Retrains:  e.Retrains,
	}
	if e.Pipeline != nil && e.Pipeline.Train != nil {
		info.Kind = e.Pipeline.Kind.String()
		info.Task = e.Pipeline.Train.Task.String()
		info.Features = e.Pipeline.Train.Names
	}
	return info
}

// ModelListResponse is the GET /v1/models reply.
type ModelListResponse struct {
	Default string      `json:"default,omitempty"`
	Models  []ModelInfo `json:"models"`
}

func (s *Server) handleListModels(w http.ResponseWriter, _ *http.Request) {
	entries := s.reg.List()
	resp := ModelListResponse{Default: s.reg.DefaultName(), Models: make([]ModelInfo, 0, len(entries))}
	for _, e := range entries {
		resp.Models = append(resp.Models, modelInfo(e))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCreateModel(w http.ResponseWriter, r *http.Request) {
	var sp registry.Spec
	if err := readJSON(r, &sp, false); err != nil {
		writeErr(w, err)
		return
	}
	e, err := s.reg.Create(sp)
	if err != nil {
		writeErr(w, badRequest{err})
		return
	}
	writeJSON(w, http.StatusAccepted, modelInfo(e))
}

// importPath is the artifact import route, the one route whose body is
// not JSON.
const importPath = "/v1/models/import"

// MaxArtifactBytes bounds an imported model artifact's body (64 MiB —
// an order of magnitude above the largest zoo pipeline trained at
// MaxHours).
const MaxArtifactBytes = 64 << 20

// MaxJSONBytes bounds every other request body. The largest valid one is
// a MaxIngestBatch-record ingest on a MaxScenarioGroups-group scenario:
// 1.66 MB of compact JSON with 11-character group names (3.3 KB a
// record), and 2.07 MB with names at core.MaxScenarioNameLen, so 4 MiB
// leaves 2× headroom (TestScenarioNameCap); a full MaxBatch explain on
// the 26-feature web schema is 86 KB.
const MaxJSONBytes = 4 << 20

// handleExportModel serves the named ready model as a self-contained
// binary artifact (spec + scaler + model + splits + background). The
// bytes round-trip through POST /v1/models/import on any explaind.
func (s *Server) handleExportModel(w http.ResponseWriter, _ *http.Request, name string) {
	data, err := s.reg.ExportArtifact(name)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", strings.ReplaceAll(name, "/", "_")+".nfva"))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleImportModel registers an exported artifact as a ready model
// (hot: no training). The optional ?name= query overrides the name
// embedded in the artifact's spec. Corrupt artifacts are the client's
// 400; name collisions are 409.
func (s *Server) handleImportModel(w http.ResponseWriter, r *http.Request) {
	data, err := readBody(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	name, err := s.reg.ImportArtifact(data, r.URL.Query().Get("name"), time.Now())
	if err != nil {
		writeErr(w, badRequest{err})
		return
	}
	e, err := s.reg.Get(name)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, modelInfo(e))
}

func (s *Server) handleModelInfo(w http.ResponseWriter, _ *http.Request, name string) {
	e, err := s.reg.Get(name)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, modelInfo(e))
}

// ─── health and schema ──────────────────────────────────────────────────

// HealthResponse is the GET /healthz reply.
type HealthResponse struct {
	// Status is "ok" when the default model is servable, else "degraded"
	// (served with 503 so readiness probes hold traffic back).
	Status string `json:"status"`
	// Models counts registered models; Ready counts servable ones.
	Models int `json:"models"`
	Ready  int `json:"ready"`
	// Default is the model the legacy endpoints alias to; Model is its
	// kind when servable (legacy field).
	Default string `json:"default,omitempty"`
	Model   string `json:"model,omitempty"`
	// States maps each model to its health state (ready | degraded |
	// shedding | training | failed; see health.go). A model mid-retrain
	// keeps serving its old pipeline but reports "degraded" here.
	States map[string]string `json:"states,omitempty"`
	// Store summarizes the artifact store's fault-tolerance state when
	// the store sits over a registry.RetryBlob.
	Store *registry.StoreHealth `json:"store,omitempty"`
	// NodeID and Version identify the node and build behind a load
	// balancer; Cluster is the fleet view when this node is clustered
	// (ring ownership, peer liveness, sync lag — health.go).
	NodeID  string         `json:"node_id,omitempty"`
	Version string         `json:"version,omitempty"`
	Cluster *ClusterHealth `json:"cluster,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{
		Status: "ok", Default: s.reg.DefaultName(),
		NodeID: s.NodeID, Version: Version, Cluster: s.clusterHealth(),
	}
	entries := s.reg.List()
	resp.States = make(map[string]string, len(entries))
	for _, e := range entries {
		resp.Models++
		if e.Status == registry.StatusReady {
			resp.Ready++
		}
		resp.States[e.Spec.Name] = s.modelState(e)
	}
	resp.Store = s.storeHealth()
	status := http.StatusOK
	if p, err := s.reg.Lookup(resp.Default); err == nil {
		resp.Model = p.Kind.String()
		// Servable but impaired (mid-retrain or shedding): report
		// "degraded" without gating traffic — the old pipeline still
		// answers every request.
		if st := resp.States[resp.Default]; st == StateDegraded || st == StateShedding {
			resp.Status = "degraded"
		}
	} else {
		// The default model is missing, training or failed: every legacy
		// endpoint would 404/409, so health checks must not admit traffic.
		resp.Status = "degraded"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// SchemaResponse describes the feature vector the serving endpoints expect.
type SchemaResponse struct {
	Name     string   `json:"name"`
	Model    string   `json:"model"`
	Task     string   `json:"task"`
	Features []string `json:"features"`
}

func (s *Server) handleSchema(w http.ResponseWriter, _ *http.Request, name string) {
	p, ok := s.lookup(w, name)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, SchemaResponse{
		Name:     name,
		Model:    p.Kind.String(),
		Task:     p.Train.Task.String(),
		Features: p.Train.Names,
	})
}

// ─── predict and explain ────────────────────────────────────────────────

// featureRequest is the shared request body carrying one feature vector,
// or (for batch explain) several under "instances". Explain requests may
// additionally select a registered method with typed params and request
// faithfulness metrics.
type featureRequest struct {
	Features  []float64   `json:"features,omitempty"`
	Instances [][]float64 `json:"instances,omitempty"`
	TopK      int         `json:"topk,omitempty"`
	// Method names a registered local explanation method ("" = the
	// model's default).
	Method string `json:"method,omitempty"`
	// Params carries the method's typed options; unknown keys are a 400.
	Params json.RawMessage `json:"params,omitempty"`
	// Evaluate attaches evalx faithfulness metrics to each explanation.
	Evaluate bool `json:"evaluate,omitempty"`
	// BudgetMs is the request's latency budget in milliseconds. It wins
	// over the X-Budget-Ms header, which wins over the server default.
	// Zero inherits; the work runs under a context deadline and the
	// degradation ladder fits the method to it.
	BudgetMs int `json:"budget_ms,omitempty"`
	// NoCache forces a fresh computation, bypassing the explanation
	// result cache in both directions (no read, no store). The response
	// is tagged X-Cache: bypass.
	NoCache bool `json:"no_cache,omitempty"`
}

// MaxBudgetMs caps a request latency budget (10 minutes): beyond it, use
// the async jobs API instead of holding a connection open.
const MaxBudgetMs = 600_000

// requestBudget resolves the effective latency budget for one request:
// body "budget_ms" > X-Budget-Ms header > Server.DefaultBudgetMs. Zero
// means unbudgeted.
func (s *Server) requestBudget(r *http.Request, bodyMs int) (time.Duration, error) {
	ms := bodyMs
	if ms == 0 {
		if h := r.Header.Get("X-Budget-Ms"); h != "" {
			v, err := strconv.Atoi(h)
			if err != nil {
				return 0, fmt.Errorf("invalid X-Budget-Ms %q: not an integer", h)
			}
			ms = v
		}
	}
	if ms == 0 {
		ms = s.DefaultBudgetMs
	}
	if ms < 0 {
		return 0, fmt.Errorf("budget_ms must be >= 0, got %d", ms)
	}
	if ms > MaxBudgetMs {
		return 0, fmt.Errorf("budget_ms %d exceeds limit %d; use the jobs API for long explanations", ms, MaxBudgetMs)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// decodeStrict decodes a raw "params" object into v, rejecting unknown
// keys: a misspelled parameter name is a client error, not silently
// ignored. Shared by explain params (xai.Options) and job params.
func decodeStrict(raw json.RawMessage, v any) error {
	if len(raw) == 0 {
		return nil
	}
	if err := decodeJSON(raw, v, true); err != nil {
		return fmt.Errorf("invalid params: %w", err)
	}
	return nil
}

func decodeFeatures(w http.ResponseWriter, r *http.Request, p *core.Pipeline) (featureRequest, bool) {
	var req featureRequest
	if err := readJSON(r, &req, false); err != nil {
		writeErr(w, err)
		return req, false
	}
	want := p.Train.NumFeatures()
	if req.Instances != nil {
		if req.Features != nil {
			writeError(w, http.StatusBadRequest, "provide features or instances, not both")
			return req, false
		}
		if len(req.Instances) == 0 {
			writeError(w, http.StatusBadRequest, "instances must not be empty")
			return req, false
		}
		if len(req.Instances) > MaxBatch {
			writeError(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(req.Instances), MaxBatch)
			return req, false
		}
		for i, x := range req.Instances {
			if len(x) != want {
				writeError(w, http.StatusBadRequest, "instance %d: need %d features, got %d", i, want, len(x))
				return req, false
			}
		}
		return req, true
	}
	if len(req.Features) != want {
		writeError(w, http.StatusBadRequest, "need %d features, got %d", want, len(req.Features))
		return req, false
	}
	return req, true
}

// PredictResponse is the predict reply.
type PredictResponse struct {
	Prediction float64 `json:"prediction"`
}

// BatchPredictResponse is the predict reply when "instances" was sent; the
// batch is scored in one pass through the model's batch-inference path.
type BatchPredictResponse struct {
	Count       int       `json:"count"`
	Predictions []float64 `json:"predictions"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request, name string) {
	p, ok := s.lookup(w, name)
	if !ok {
		return
	}
	req, ok := decodeFeatures(w, r, p)
	if !ok {
		return
	}
	if req.Instances != nil {
		preds := p.PredictBatch(req.Instances)
		writeJSON(w, http.StatusOK, BatchPredictResponse{Count: len(preds), Predictions: preds})
		return
	}
	writeJSON(w, http.StatusOK, PredictResponse{Prediction: p.Model.Predict(req.Features)})
}

// Contribution is one feature's share of an explanation.
type Contribution struct {
	Feature string  `json:"feature"`
	Phi     float64 `json:"phi"`
	// CIHalf is the 95% confidence half-width of Phi when the progressive
	// estimator produced it (budgeted KernelSHAP); omitted for exact or
	// single-pass methods.
	CIHalf *float64 `json:"ci_half,omitempty"`
}

// Evaluation carries evalx faithfulness metrics for one explanation,
// attached when the request sets "evaluate": true so operators can
// compare methods on the same instance.
type Evaluation struct {
	// AdditivityError is |base + Σφ − prediction|, the local-accuracy
	// violation (0 for exact methods like TreeSHAP). Omitted for methods
	// whose attributions are not additive decompositions (anchors,
	// counterfactual) — the quantity is meaningless there.
	AdditivityError *float64 `json:"additivity_error,omitempty"`
	// DeletionAUC is the area under the attribution-guided deletion curve;
	// lower means the top-ranked features collapse the prediction faster
	// (a more faithful ranking). Meaningful for any method that ranks
	// features; omitted (never reported as a perfect-looking 0) when the
	// curve cannot be computed.
	DeletionAUC *float64 `json:"deletion_auc,omitempty"`
}

// evaluateAttr computes the faithfulness metrics for one explanation.
// Additivity error only applies to methods whose attributions are
// additive decompositions; the deletion AUC applies to any ranking.
func evaluateAttr(p *core.Pipeline, attr xai.Attribution, x []float64, method string) *Evaluation {
	var ev Evaluation
	if m, ok := xai.LookupMethod(method); !ok || m.Caps.Additive {
		// Unregistered method names only reach here from embedders
		// calling explainResponse directly; assume additive like the
		// pre-registry explainers.
		ae := attr.AdditivityError()
		ev.AdditivityError = &ae
	}
	if curve, err := evalx.Deletion(p.Model, x, attr.Ranking(), p.Background); err == nil {
		auc := curve.AUC()
		ev.DeletionAUC = &auc
	}
	return &ev
}

// AnytimeInfo reports how a latency-budgeted request was actually served:
// which degradation-ladder rung ran, whether fidelity was reduced, and how
// far the progressive estimator got before stopping.
type AnytimeInfo struct {
	// BudgetMs is the effective budget the request ran under.
	BudgetMs int64 `json:"budget_ms,omitempty"`
	// Rung is the method that ran; Requested is what the client asked for
	// (or the model default) when the ladder changed it.
	Rung      string `json:"rung,omitempty"`
	Requested string `json:"requested,omitempty"`
	// Downgraded is true when the rung or its sample budget was reduced to
	// fit the latency budget; Reason says why in one clause.
	Downgraded bool   `json:"downgraded,omitempty"`
	Reason     string `json:"reason,omitempty"`
	// Converged reports whether the progressive estimator's confidence
	// intervals tightened below tolerance (false = deadline or sample
	// budget cut it short: a valid partial result). Omitted for
	// non-progressive methods.
	Converged *bool `json:"converged,omitempty"`
	// SamplesUsed / Blocks are the coalitions and blocks actually spent.
	SamplesUsed int `json:"samples_used,omitempty"`
	Blocks      int `json:"blocks,omitempty"`
}

// ExplainResponse is the single-instance explain reply, and one element of
// a batch reply.
type ExplainResponse struct {
	Prediction    float64        `json:"prediction"`
	Base          float64        `json:"base"`
	Method        string         `json:"method"`
	Contributions []Contribution `json:"contributions"`
	Report        string         `json:"report,omitempty"`
	Evaluation    *Evaluation    `json:"evaluation,omitempty"`
	// Anytime is present on latency-budgeted requests (and whenever the
	// progressive estimator ran) — see AnytimeInfo.
	Anytime *AnytimeInfo `json:"anytime,omitempty"`
	// Error marks a failed instance in a budgeted batch reply; the other
	// fields are zero when set.
	Error string `json:"error,omitempty"`
}

// BatchExplainResponse is the explain reply when "instances" was sent.
type BatchExplainResponse struct {
	Method       string            `json:"method"`
	Count        int               `json:"count"`
	Explanations []ExplainResponse `json:"explanations"`
	// Failed counts instances whose Error field is set (budgeted batches
	// return partial results rather than failing the whole request).
	Failed int `json:"failed,omitempty"`
	// Anytime carries the request-level budget/ladder decision; per-item
	// progress is on each explanation.
	Anytime *AnytimeInfo `json:"anytime,omitempty"`
	// Cache tallies how the batch was served (hits never touched the
	// worker pool); present when a result cache is attached.
	Cache *core.BatchCacheStats `json:"cache,omitempty"`
}

func explainResponse(p *core.Pipeline, attr xai.Attribution, x []float64, method string, topK int, withReport, evaluate bool) ExplainResponse {
	resp := ExplainResponse{
		Prediction: attr.Value,
		Base:       attr.Base,
		Method:     method,
	}
	if withReport {
		resp.Report = core.OperatorReport("prediction explanation", attr, method, topK)
	}
	for _, j := range attr.TopK(topK) {
		c := Contribution{
			Feature: featureName(p.Train.Names, j),
			Phi:     attr.Phi[j],
		}
		if attr.Diag != nil && j < len(attr.Diag.CIHalf) {
			half := attr.Diag.CIHalf[j]
			c.CIHalf = &half
		}
		resp.Contributions = append(resp.Contributions, c)
	}
	if d := attr.Diag; d != nil {
		conv := d.Converged
		resp.Anytime = &AnytimeInfo{Converged: &conv, SamplesUsed: d.SamplesUsed, Blocks: d.Blocks}
	}
	if evaluate {
		resp.Evaluation = evaluateAttr(p, attr, x, method)
	}
	return resp
}

// decorateAnytime overlays the budget/ladder decision onto a response's
// Anytime block (creating it when the method produced no Diag).
func decorateAnytime(a *AnytimeInfo, plan *xai.Plan, budget time.Duration) *AnytimeInfo {
	if plan == nil && budget == 0 {
		return a
	}
	if a == nil {
		a = &AnytimeInfo{}
	}
	a.BudgetMs = budget.Milliseconds()
	if plan != nil {
		a.Rung = plan.Method
		a.Downgraded = plan.Downgraded
		a.Reason = plan.Reason
		if plan.Downgraded {
			a.Requested = plan.Requested
		}
	}
	return a
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, name string) {
	p, ok := s.lookup(w, name)
	if !ok {
		return
	}
	req, ok := decodeFeatures(w, r, p)
	if !ok {
		return
	}
	topK := req.TopK
	var opts xai.Options
	if err := decodeStrict(req.Params, &opts); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// params.topk shapes the ranked response like the top-level "topk"
	// (which wins when both are set); ExplainerFor normalizes it out of
	// the cache key.
	if topK <= 0 {
		topK = opts.TopK
	}
	if topK <= 0 {
		topK = 5
	}
	budget, err := s.requestBudget(r, req.BudgetMs)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Admission: per-model concurrency budget with a bounded wait queue;
	// a saturated model sheds this request with 503 + Retry-After.
	release, ok := s.admitRequest(w, r, name)
	if !ok {
		return
	}
	defer release()

	ctx := r.Context()
	method := req.Method
	var plan *xai.Plan
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
		// Fit the method to the budget: resolve the effective method and
		// sample count first so the ladder reduces relative to what would
		// actually run, then walk down rungs if it still cannot fit.
		if method == "" {
			method = core.DefaultMethod(p.Model)
		}
		eff := opts
		if eff.Samples <= 0 && method == "kernelshap" {
			eff.Samples = p.ShapSampleBudget()
		}
		pl := xai.PlanBudget(p.Model, method, eff, budget, xai.CostModel{
			PredNs:     p.PredictCostNs(),
			Background: len(p.Background),
			Features:   p.Train.NumFeatures(),
		})
		plan = &pl
		method = pl.Method
		opts = pl.Opts
	}
	e, method, err := p.ExplainerFor(method, opts)
	if err != nil {
		writeErr(w, err)
		return
	}
	if req.Instances != nil {
		// Batch fan-out shares one explainer instance across workers, so
		// methods registered without the concurrent-use capability only
		// serve single-instance requests.
		if m, ok := xai.LookupMethod(method); ok && !m.Caps.SupportsBatch {
			writeError(w, http.StatusConflict, "method %q does not support batch fan-out; send one instance per request", method)
			return
		}
		// One server-wide gate bounds explain concurrency: K simultaneous
		// batch requests share cap(gate) workers rather than each spawning
		// a GOMAXPROCS pool and oversubscribing the cores. The cache-aware
		// path serves tier-1 hits without consuming gate slots and fans
		// only the misses out (single-flighted across concurrent batches).
		attrs, errs, cstats := p.ExplainBatchWith(ctx, e, method, opts, req.Instances, s.gate, req.NoCache)
		setCacheHeader(w, p, batchOutcome(cstats))
		nOK, failed := 0, 0
		var firstErr error
		for _, ie := range errs {
			if ie == nil {
				nOK++
			} else {
				failed++
				if firstErr == nil {
					firstErr = ie
				}
			}
		}
		if firstErr != nil && (nOK == 0 || budget == 0) {
			// Nothing to return (a budget that expired before any instance
			// finished is a typed timeout), or an unbudgeted batch, which
			// keeps the legacy all-or-nothing contract.
			writeErr(w, workErr("explain", budget, firstErr))
			return
		}
		// Per-instance evaluation is model work too (a deletion sweep per
		// instance), so it fans out through the same gate as the explains
		// instead of running as a serial tail on the request goroutine.
		var evals []*Evaluation
		if req.Evaluate {
			evals = make([]*Evaluation, len(attrs))
			var explained []int
			for i := range attrs {
				if errs[i] == nil {
					explained = append(explained, i)
				}
			}
			// An abandoned request leaves evals[i] nil.
			xai.GatedEach(ctx, s.gate, explained, nil, func(i int) {
				evals[i] = evaluateAttr(p, attrs[i], req.Instances[i], method)
			})
		}
		resp := BatchExplainResponse{Method: method, Count: len(attrs), Failed: failed}
		if p.ResultCache != nil {
			cs := cstats
			resp.Cache = &cs
		}
		for i, attr := range attrs {
			if errs[i] != nil {
				resp.Explanations = append(resp.Explanations, ExplainResponse{Error: explainErrorLabel(errs[i])})
				continue
			}
			// Batch replies skip the prose report: dashboards consuming
			// batches want the numbers, and N reports dominate the payload.
			er := explainResponse(p, attr, req.Instances[i], method, topK, false, false)
			if evals != nil {
				er.Evaluation = evals[i]
			}
			resp.Explanations = append(resp.Explanations, er)
		}
		resp.Anytime = decorateAnytime(resp.Anytime, plan, budget)
		writeJSON(w, http.StatusOK, resp)
		return
	}
	attr, outcome, err := p.ExplainWith(ctx, e, method, opts, req.Features, req.NoCache)
	if err != nil {
		writeErr(w, workErr("explain", budget, err))
		return
	}
	setCacheHeader(w, p, outcome.String())
	resp := explainResponse(p, attr, req.Features, method, topK, true, req.Evaluate)
	resp.Anytime = decorateAnytime(resp.Anytime, plan, budget)
	writeJSON(w, http.StatusOK, resp)
}

// workErr prefixes a failed model-work request's error with its route
// and, when it ran under one, its latency budget. An expired budget with
// no result in hand is the table's typed 504 (the client can retry with
// a larger budget).
func workErr(route string, budget time.Duration, err error) error {
	if budget > 0 {
		return fmt.Errorf("%s: latency budget of %s: %w", route, budget, err)
	}
	return fmt.Errorf("%s: %w", route, err)
}

// explainErrorLabel renders one failed batch instance's error, typing
// budget exhaustion so clients can distinguish it from model failures.
func explainErrorLabel(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return "latency budget exhausted: " + err.Error()
	}
	return err.Error()
}

// ─── explainer discovery ────────────────────────────────────────────────

// ExplainerInfo describes one registered method as applicable to a model.
type ExplainerInfo struct {
	Name string `json:"name"`
	// Kind is "local" (per-instance explain) or "global" (jobs API).
	Kind string `json:"kind"`
	// Default marks the method explain requests use when none is named.
	Default      bool             `json:"default,omitempty"`
	Capabilities xai.Capabilities `json:"capabilities"`
	// DefaultParams are the option fields the method reads, with the
	// values an option-less explain request against this model actually
	// uses (registry defaults overlaid with pipeline settings).
	DefaultParams xai.Options `json:"default_params"`
}

// ExplainerListResponse is the GET /v1/models/{name}/explainers reply.
type ExplainerListResponse struct {
	Model string `json:"model"`
	// DefaultMethod answers explain requests that name no method.
	DefaultMethod string          `json:"default_method"`
	Explainers    []ExplainerInfo `json:"explainers"`
}

func (s *Server) handleExplainers(w http.ResponseWriter, _ *http.Request, name string) {
	p, ok := s.lookup(w, name)
	if !ok {
		return
	}
	def := core.DefaultMethod(p.Model)
	resp := ExplainerListResponse{Model: name, DefaultMethod: def}
	for _, m := range p.Methods() {
		resp.Explainers = append(resp.Explainers, ExplainerInfo{
			Name:          m.Name,
			Kind:          m.Kind.String(),
			Default:       m.Name == def,
			Capabilities:  m.Caps,
			DefaultParams: p.DefaultOptions(m),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// ─── what-if ────────────────────────────────────────────────────────────

// WhatIfRequest is the whatif request body.
type WhatIfRequest struct {
	Features  []float64 `json:"features"`
	Op        string    `json:"op"`    // "<=" or ">="
	Value     float64   `json:"value"` // prediction target
	Immutable []string  `json:"immutable,omitempty"`
	// BudgetMs is the latency budget (same precedence as explain).
	BudgetMs int `json:"budget_ms,omitempty"`
}

// Change is one modified feature of a counterfactual.
type Change struct {
	Feature string  `json:"feature"`
	From    float64 `json:"from"`
	To      float64 `json:"to"`
}

// WhatIfResponse is the whatif reply.
type WhatIfResponse struct {
	Valid      bool     `json:"valid"`
	Prediction float64  `json:"prediction"`
	Changes    []Change `json:"changes"`
	Report     string   `json:"report"`
}

func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request, name string) {
	p, ok := s.lookup(w, name)
	if !ok {
		return
	}
	var req WhatIfRequest
	if err := readJSON(r, &req, false); err != nil {
		writeErr(w, err)
		return
	}
	if want := p.Train.NumFeatures(); len(req.Features) != want {
		writeError(w, http.StatusBadRequest, "need %d features, got %d", want, len(req.Features))
		return
	}
	if req.Op != "<=" && req.Op != ">=" {
		writeError(w, http.StatusBadRequest, "op must be <= or >=")
		return
	}
	budget, err := s.requestBudget(r, req.BudgetMs)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	release, ok := s.admitRequest(w, r, name)
	if !ok {
		return
	}
	defer release()
	ctx := r.Context()
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	target := counterfactual.Target{Op: req.Op, Value: req.Value}
	cf, err := p.WhatIf(ctx, req.Features, target, req.Immutable)
	if err != nil {
		writeErr(w, workErr("whatif", budget, err))
		return
	}
	resp := WhatIfResponse{
		Valid:      cf.Valid,
		Prediction: cf.Prediction,
		Report:     core.WhatIfReport(cf, p.Train.Names, req.Features, target),
	}
	for _, j := range cf.Changed {
		resp.Changes = append(resp.Changes, Change{
			Feature: featureName(p.Train.Names, j),
			From:    req.Features[j],
			To:      cf.X[j],
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// ─── importance ─────────────────────────────────────────────────────────

// importanceInstances is how many test rows the global |SHAP| profile
// aggregates — shared by the synchronous endpoint and the
// global-importance job so their (cached) results coincide exactly.
const importanceInstances = 30

// ImportanceResponse is the importance reply.
type ImportanceResponse struct {
	Features []string  `json:"features"`
	Shap     []float64 `json:"shap"`
	Perm     []float64 `json:"perm"`
}

func (s *Server) handleImportance(w http.ResponseWriter, r *http.Request, name string) {
	p, ok := s.lookup(w, name)
	if !ok {
		return
	}
	// GET request: the budget arrives via header or server default only.
	budget, err := s.requestBudget(r, 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	release, ok := s.admitRequest(w, r, name)
	if !ok {
		return
	}
	defer release()
	ctx := r.Context()
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	shapImp, permImp, err := p.GlobalImportance(ctx, importanceInstances)
	if err != nil {
		writeErr(w, workErr("importance", budget, err))
		return
	}
	writeJSON(w, http.StatusOK, ImportanceResponse{
		Features: p.Train.Names,
		Shap:     shapImp,
		Perm:     permImp,
	})
}
