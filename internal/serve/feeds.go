// The streaming plane of the serving API: a scenario catalog
// (GET/POST /v1/scenarios) over the registry's scenario registry, live
// telemetry feeds (POST /v1/feeds) driven by the simulator or external
// ingest (POST /v1/feeds/{name}/records), and model attachments
// (POST /v1/feeds/{name}/attach) that score the stream online, detect
// drift and retrain through the jobs subsystem, hot-swapping the model
// via the registry lifecycle.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"nfvxai/internal/core"
	"nfvxai/internal/feed"
	"nfvxai/internal/nfv/telemetry"
	"nfvxai/internal/registry"
)

// ─── scenario catalog ───────────────────────────────────────────────────

// ScenarioInfo is one registered scenario as served by the API.
type ScenarioInfo struct {
	core.ScenarioSpec
	// Aliases are alternate lookup names ("web" for "web-sfc").
	Aliases []string `json:"aliases,omitempty"`
	// Features is the telemetry feature schema models trained on this
	// scenario consume — derived, but operators need it to shape ingest.
	Features []string `json:"features,omitempty"`
}

// ScenarioListResponse is the GET /v1/scenarios reply.
type ScenarioListResponse struct {
	Scenarios []ScenarioInfo `json:"scenarios"`
}

func (s *Server) scenarioInfo(sp core.ScenarioSpec) ScenarioInfo {
	return ScenarioInfo{
		ScenarioSpec: sp,
		Aliases:      s.reg.Scenarios.AliasesOf(sp.Name),
		Features:     telemetry.FeatureNames(sp.GroupNames()),
	}
}

func (s *Server) handleListScenarios(w http.ResponseWriter, _ *http.Request) {
	specs := s.reg.Scenarios.List()
	resp := ScenarioListResponse{Scenarios: make([]ScenarioInfo, 0, len(specs))}
	for _, sp := range specs {
		resp.Scenarios = append(resp.Scenarios, s.scenarioInfo(sp))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCreateScenario(w http.ResponseWriter, r *http.Request) {
	var sp core.ScenarioSpec
	// A misspelled spec field is a client error.
	if err := readJSON(r, &sp, true); err != nil {
		writeErr(w, err)
		return
	}
	norm, err := s.reg.Scenarios.Register(sp)
	if err != nil {
		writeErr(w, badRequest{err})
		return
	}
	// Registered scenarios must survive restart: rewrite the manifest now
	// rather than waiting for the next model persist to happen by luck.
	// The in-memory registration already succeeded, so a store failure is
	// reported through the registry's observer, not as a request error.
	if err := s.reg.PersistManifest(); err != nil && s.reg.OnStoreError != nil {
		s.reg.OnStoreError(err)
	}
	writeJSON(w, http.StatusCreated, s.scenarioInfo(norm))
}

func (s *Server) handleGetScenario(w http.ResponseWriter, r *http.Request) {
	sp, err := s.reg.Scenarios.Lookup(r.PathValue("name"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.scenarioInfo(sp))
}

// ─── feeds ──────────────────────────────────────────────────────────────

// FeedRequest is the POST /v1/feeds body.
type FeedRequest struct {
	// Name is the feed's registry key (one URL path segment).
	Name string `json:"name"`
	// Scenario names the registered scenario providing the telemetry
	// schema (and, for simulated feeds, the world to run).
	Scenario string `json:"scenario"`
	// Simulate drives the feed from the simulator (default true); false
	// makes it ingest-only.
	Simulate *bool `json:"simulate,omitempty"`
	// Seed / Rate / Buffer are feed.Options fields.
	Seed   int64   `json:"seed,omitempty"`
	Rate   float64 `json:"rate,omitempty"`
	Buffer int     `json:"buffer,omitempty"`
	// Fault injects stalls/bursts on a simulated feed (chaos testing).
	Fault *feed.Fault `json:"fault,omitempty"`
}

// FeedInfo is one feed as served by the API.
type FeedInfo struct {
	Name     string `json:"name"`
	Scenario string `json:"scenario"`
	feed.Options
	Stats       feed.Stats       `json:"stats"`
	Attachments []AttachmentInfo `json:"attachments,omitempty"`
}

// FeedListResponse is the GET /v1/feeds reply.
type FeedListResponse struct {
	Feeds []FeedInfo `json:"feeds"`
}

// MaxFeeds bounds how many live feeds one process runs; each simulated
// feed owns a background goroutine. Enforced atomically by the hub.
const MaxFeeds = 64

func (s *Server) feedInfo(f *feed.Feed) FeedInfo {
	info := FeedInfo{
		Name:     f.Name(),
		Scenario: f.Spec().Name,
		Options:  f.Options(),
		Stats:    f.Stats(),
	}
	s.attachMu.Lock()
	for _, att := range s.attachments[f.Name()] {
		info.Attachments = append(info.Attachments, att.info())
	}
	s.attachMu.Unlock()
	return info
}

func (s *Server) handleListFeeds(w http.ResponseWriter, _ *http.Request) {
	feeds := s.hub.List()
	resp := FeedListResponse{Feeds: make([]FeedInfo, 0, len(feeds))}
	for _, f := range feeds {
		resp.Feeds = append(resp.Feeds, s.feedInfo(f))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCreateFeed(w http.ResponseWriter, r *http.Request) {
	var req FeedRequest
	if err := readJSON(r, &req, false); err != nil {
		writeErr(w, err)
		return
	}
	f, err := s.openFeed(req)
	if err != nil {
		writeErr(w, badRequest{err})
		return
	}
	writeJSON(w, http.StatusCreated, s.feedInfo(f))
}

// openFeed opens the feed req describes, for POST /v1/feeds and for the
// boot feeds of Open.
func (s *Server) openFeed(req FeedRequest) (*feed.Feed, error) {
	sp, err := s.reg.Scenarios.Lookup(req.Scenario)
	if err != nil {
		return nil, err
	}
	opts := feed.Options{Simulate: true, Seed: req.Seed, Rate: req.Rate, Buffer: req.Buffer, Fault: req.Fault}
	if req.Simulate != nil {
		opts.Simulate = *req.Simulate
	}
	return s.hub.Open(req.Name, sp, opts)
}

func (s *Server) handleGetFeed(w http.ResponseWriter, r *http.Request) {
	f, err := s.hub.Get(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.feedInfo(f))
}

func (s *Server) handleDeleteFeed(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.hub.Close(name); err != nil {
		writeErr(w, err)
		return
	}
	// Closing the feed closed the monitors' subscriptions; Stop just
	// drains their goroutines before the attachments are forgotten.
	s.attachMu.Lock()
	atts := s.attachments[name]
	delete(s.attachments, name)
	s.attachMu.Unlock()
	for _, att := range atts {
		att.mon.Stop()
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// ─── ingest ─────────────────────────────────────────────────────────────

// MaxIngestBatch bounds how many records one ingest request may carry.
const MaxIngestBatch = 512

// IngestRequest is the POST /v1/feeds/{name}/records body.
type IngestRequest struct {
	Records []telemetry.Record `json:"records"`
}

// IngestResponse reports how many records were accepted. Records before
// a rejected one are already published (accepted counts them), so the
// client retries from the reported offset, not from the start.
type IngestResponse struct {
	Accepted int `json:"accepted"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	f, err := s.hub.Get(r.PathValue("name"))
	if err != nil {
		writeErr(w, err)
		return
	}
	var req IngestRequest
	if err := readJSON(r, &req, false); err != nil {
		writeErr(w, err)
		return
	}
	if len(req.Records) == 0 {
		writeError(w, http.StatusBadRequest, "records must not be empty")
		return
	}
	if len(req.Records) > MaxIngestBatch {
		writeError(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(req.Records), MaxIngestBatch)
		return
	}
	for i, rec := range req.Records {
		if err := f.Ingest(rec); err != nil {
			err = badRequest{fmt.Errorf("record %d: %w", i, err)}
			writeErrorBody(w, statusOf(err), map[string]any{"error": err.Error(), "accepted": i})
			return
		}
	}
	writeJSON(w, http.StatusOK, IngestResponse{Accepted: len(req.Records)})
}

// ─── attachments: online scoring, drift, retrain ────────────────────────

// AttachRequest is the POST /v1/feeds/{name}/attach body.
type AttachRequest struct {
	// Model names the ready registry model to monitor.
	Model string `json:"model"`
	// MaxRows bounds the streaming training window (default 4096).
	MaxRows int `json:"max_rows,omitempty"`
	// Drift configures the detector; zero values select defaults.
	Drift feed.DriftConfig `json:"drift,omitempty"`
	// AutoRetrain submits a retrain job on every drift trigger (default
	// true). False leaves drift observable via GET /v1/feeds/{name} and
	// retraining to manual jobs.
	AutoRetrain *bool `json:"auto_retrain,omitempty"`
	// MinRetrainRows is the smallest streamed dataset a retrain will
	// train from (default 64); a drift trigger before that fails the job
	// rather than hot-swapping a model trained on a sliver.
	MinRetrainRows int `json:"min_retrain_rows,omitempty"`
	// MinRetrainIntervalSec rate-limits drift-triggered retrains in wall
	// time (default 30 s). High-rate simulated feeds sweep whole diurnal
	// cycles per wall second, so a frozen feature baseline can re-flag
	// drift the moment it rebuilds; without this floor every flag becomes
	// a training run. Manual retrain jobs bypass the limit — the
	// operator asked. Drift triggers remain counted either way.
	MinRetrainIntervalSec float64 `json:"min_retrain_interval_sec,omitempty"`
}

// attachment binds one model to one feed.
type attachment struct {
	feedName    string
	model       string
	mon         *feed.Monitor
	autoRetrain bool
	minRows     int
	minInterval time.Duration
	// retraining serializes retrain jobs per attachment: a drift storm
	// submits one job, not one per trigger. lastRetrain (unix nanos)
	// backs the wall-clock rate limit on automatic submissions.
	retraining  atomic.Bool
	lastRetrain atomic.Int64
	retrainJobs atomic.Uint64
}

// AttachmentInfo is one attachment as served by the API.
type AttachmentInfo struct {
	Feed string `json:"feed"`
	feed.MonitorStats
	AutoRetrain           bool    `json:"auto_retrain"`
	MinRetrainRows        int     `json:"min_retrain_rows"`
	MinRetrainIntervalSec float64 `json:"min_retrain_interval_sec"`
	RetrainJobs           uint64  `json:"retrain_jobs"`
	Retraining            bool    `json:"retraining"`
}

func (att *attachment) info() AttachmentInfo {
	return AttachmentInfo{
		Feed:                  att.feedName,
		MonitorStats:          att.mon.Stats(),
		AutoRetrain:           att.autoRetrain,
		MinRetrainRows:        att.minRows,
		MinRetrainIntervalSec: att.minInterval.Seconds(),
		RetrainJobs:           att.retrainJobs.Load(),
		Retraining:            att.retraining.Load(),
	}
}

// findAttachment resolves (model, feed) to an attachment; an empty feed
// name matches a model attached to exactly one feed.
func (s *Server) findAttachment(model, feedName string) (*attachment, error) {
	s.attachMu.Lock()
	defer s.attachMu.Unlock()
	var found []*attachment
	for _, atts := range s.attachments {
		for _, att := range atts {
			if att.model != model {
				continue
			}
			if feedName == "" || att.feedName == feedName {
				found = append(found, att)
			}
		}
	}
	switch len(found) {
	case 0:
		if feedName != "" {
			return nil, fmt.Errorf("model %q is not attached to feed %q", model, feedName)
		}
		return nil, fmt.Errorf("model %q is not attached to any feed", model)
	case 1:
		return found[0], nil
	default:
		return nil, fmt.Errorf("model %q is attached to %d feeds; name one in params.feed", model, len(found))
	}
}

func (s *Server) handleAttach(w http.ResponseWriter, r *http.Request) {
	feedName := r.PathValue("name")
	f, err := s.hub.Get(feedName)
	if err != nil {
		writeErr(w, err)
		return
	}
	var req AttachRequest
	if err := readJSON(r, &req, false); err != nil {
		writeErr(w, err)
		return
	}
	p, ok := s.lookup(w, req.Model)
	if !ok {
		return
	}
	entry, err := s.reg.Get(req.Model)
	if err != nil {
		writeErr(w, err)
		return
	}
	if entry.Spec.Target == "" {
		writeError(w, http.StatusBadRequest, "model %q has no target spec; only registry-trained models can be attached", req.Model)
		return
	}
	target, err := registry.TargetFor(entry.Spec.Target)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec := f.Spec()
	if err := schemaMatches(p.Train.Names, spec); err != nil {
		writeError(w, http.StatusConflict, "model %q cannot consume feed %q: %v", req.Model, feedName, err)
		return
	}
	maxRows := req.MaxRows
	if maxRows <= 0 {
		maxRows = 4096
	}
	minRows := req.MinRetrainRows
	if minRows <= 0 {
		minRows = 64
	}
	minInterval := time.Duration(req.MinRetrainIntervalSec * float64(time.Second))
	if minInterval <= 0 {
		minInterval = 30 * time.Second
	}
	att := &attachment{
		feedName:    feedName,
		model:       req.Model,
		autoRetrain: req.AutoRetrain == nil || *req.AutoRetrain,
		minRows:     minRows,
		minInterval: minInterval,
	}
	ext := telemetry.NewExtractor(target, spec.SLO.MaxLatencyMs, spec.GroupNames())
	ext.MaxRows = maxRows

	s.attachMu.Lock()
	for _, other := range s.attachments[feedName] {
		if other.model == req.Model {
			s.attachMu.Unlock()
			writeError(w, http.StatusConflict, "model %q is already attached to feed %q", req.Model, feedName)
			return
		}
	}
	mon, err := feed.Attach(f, feed.MonitorConfig{
		Model:     req.Model,
		Extractor: ext,
		// Resolving through the registry on every prediction means a
		// hot-swapped (retrained) pipeline takes over mid-stream.
		Predict: func(x []float64) float64 {
			p, err := s.reg.Lookup(req.Model)
			if err != nil {
				return 0
			}
			return p.Model.Predict(x)
		},
		Drift:   req.Drift,
		OnDrift: func(rep feed.DriftReport) { s.onDrift(att, rep) },
	})
	if err != nil {
		s.attachMu.Unlock()
		writeErr(w, badRequest{err})
		return
	}
	att.mon = mon
	s.attachments[feedName] = append(s.attachments[feedName], att)
	s.attachMu.Unlock()
	writeJSON(w, http.StatusCreated, att.info())
}

// schemaMatches checks that the feed's telemetry feature schema is
// exactly the model's training schema.
func schemaMatches(modelNames []string, spec core.ScenarioSpec) error {
	names := telemetry.FeatureNames(spec.GroupNames())
	if len(names) != len(modelNames) {
		return fmt.Errorf("feed schema has %d features, model expects %d", len(names), len(modelNames))
	}
	for i, n := range names {
		if modelNames[i] != n {
			return fmt.Errorf("feature %d is %q, model expects %q", i, n, modelNames[i])
		}
	}
	return nil
}

// onDrift runs on the monitor goroutine for every drift trigger: it
// submits one retrain job unless one is already in flight.
func (s *Server) onDrift(att *attachment, _ feed.DriftReport) {
	if !att.autoRetrain {
		return
	}
	if time.Since(time.Unix(0, att.lastRetrain.Load())) < att.minInterval {
		return
	}
	if !att.retraining.CompareAndSwap(false, true) {
		return
	}
	p, err := s.reg.Lookup(att.model)
	if err != nil {
		att.retraining.Store(false)
		return
	}
	if _, err := s.jobs.submit(att.model, JobRetrain, JobParams{Feed: att.feedName}, p, s.retrainRunner(att)); err != nil {
		att.retraining.Store(false)
		return
	}
	// Stamp the rate limit only on a successful submission: a failed one
	// must not consume the adaptation window.
	att.lastRetrain.Store(time.Now().UnixNano())
}

// RetrainResult is the retrain job result.
type RetrainResult struct {
	Model string `json:"model"`
	Feed  string `json:"feed"`
	// Rows is how many streamed examples the new pipeline trained on.
	Rows int `json:"rows"`
	// Retrains is the model's total successful hot-swap count after this
	// one.
	Retrains int `json:"retrains"`
}

// retrainRunner builds the job runner for one attachment: snapshot the
// streamed dataset, train a fresh pipeline of the model's kind, hot-swap
// it into the registry, and rebase the drift monitor.
func (s *Server) retrainRunner(att *attachment) jobRunner {
	return func(ctx context.Context, _ *core.Pipeline, _ JobParams, progress func(float64)) (any, error) {
		defer att.retraining.Store(false)
		att.retrainJobs.Add(1)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ds := att.mon.DatasetSnapshot()
		if ds.Len() < att.minRows {
			return nil, fmt.Errorf("retrain %s: %d rows streamed from feed %s, need %d", att.model, ds.Len(), att.feedName, att.minRows)
		}
		entry, err := s.reg.Get(att.model)
		if err != nil {
			return nil, err
		}
		kind, err := registry.ModelKindFor(entry.Spec.Model)
		if err != nil {
			return nil, err
		}
		seed := entry.Spec.Seed
		if seed == 0 {
			seed = 1
		}
		progress(0.1)
		p2, err := core.NewPipeline(kind, ds, seed)
		if err != nil {
			return nil, fmt.Errorf("retrain %s: %w", att.model, err)
		}
		if entry.Spec.ShapSamples > 0 {
			p2.ShapSamples = entry.Spec.ShapSamples
		}
		progress(0.9)
		// A cancelled job must not swap: the fit is monolithic, so this
		// post-train check is the cancellation point.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		retrains, err := s.reg.Swap(att.model, p2, time.Now())
		if err != nil {
			return nil, err
		}
		// The retrained model defines a new "normal"; rebuild the drift
		// baseline against it.
		att.mon.ResetDrift()
		return RetrainResult{Model: att.model, Feed: att.feedName, Rows: ds.Len(), Retrains: retrains}, nil
	}
}
