package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nfvxai/internal/core"
	"nfvxai/internal/feed"
	"nfvxai/internal/nfv/telemetry"
	"nfvxai/internal/registry"
)

// edgeSpec is a small runtime-registered scenario used by the streaming
// tests: never compiled into the binary's builtins, so it proves the
// POST /v1/scenarios → train → stream → retrain loop works end to end.
func edgeSpec() core.ScenarioSpec {
	return core.ScenarioSpec{
		Name:        "edge-pop",
		Description: "two-hop edge POP for streaming tests",
		Groups: []core.GroupSpec{
			{Name: "fw", Kind: "firewall", Replicas: 1, CoresPerInstance: 2},
			{Name: "mon", Kind: "monitor", Replicas: 1, CoresPerInstance: 1},
		},
		Traffic: core.TrafficSpec{BaseFPS: 20000, DiurnalAmplitude: 0.3, PeakHour: 12},
		SLO:     core.SLOSpec{MaxLatencyMs: 5, MaxLossRate: 0.01},
	}
}

// edgeRecords simulates the edge scenario offline and returns n epoch
// records — the stand-in for real infrastructure telemetry in ingest
// tests.
func edgeRecords(t *testing.T, seed int64, n int) []telemetry.Record {
	t.Helper()
	return specRecords(t, edgeSpec(), seed, n)
}

// specRecords simulates sp offline and returns n epoch records.
func specRecords(t *testing.T, sp core.ScenarioSpec, seed int64, n int) []telemetry.Record {
	t.Helper()
	sc, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	w, h, err := sc.BuildWorld(seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	var recs []telemetry.Record
	h.OnEpoch(func(rec telemetry.Record) { recs = append(recs, rec) })
	w.Run(float64(n+2) * sc.EpochSec)
	if len(recs) < n {
		t.Fatalf("simulated %d records, want %d", len(recs), n)
	}
	return recs[:n]
}

// newStreamingServer builds a fresh multi-model server (no preloaded
// default model) with its Close hooked into test cleanup.
func newStreamingServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(registry.New())
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv
}

// readSSE reads one SSE frame ("event:" + "data:" lines up to the blank
// separator).
func readSSE(t *testing.T, br *bufio.Reader) (event string, data []byte) {
	t.Helper()
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE read: %v (event %q data %q)", err, event, data)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && event != "":
			return event, data
		}
	}
}

// TestScenarioCRUD covers the scenario catalog endpoints: builtins are
// listed, runtime specs register once, invalid specs are rejected.
func TestScenarioCRUD(t *testing.T) {
	_, srv := newStreamingServer(t)

	resp := getJSON(t, srv, "/v1/scenarios")
	wantStatus(t, resp, http.StatusOK)
	list := decode[ScenarioListResponse](t, resp)
	if len(list.Scenarios) != 2 {
		t.Fatalf("builtin scenarios %d, want 2", len(list.Scenarios))
	}

	resp = postJSON(t, srv, "/v1/scenarios", edgeSpec())
	wantStatus(t, resp, http.StatusCreated)
	info := decode[ScenarioInfo](t, resp)
	if info.EpochSec != 5 || len(info.Features) != len(telemetry.FeatureNames([]string{"fw", "mon"})) {
		t.Fatalf("created scenario %+v", info)
	}

	// Lookup by name, by alias, and a miss.
	resp = getJSON(t, srv, "/v1/scenarios/edge-pop")
	wantStatus(t, resp, http.StatusOK)
	resp = getJSON(t, srv, "/v1/scenarios/web")
	wantStatus(t, resp, http.StatusOK)
	if got := decode[ScenarioInfo](t, resp); got.Name != "web-sfc" {
		t.Fatalf("alias resolved to %q", got.Name)
	}
	resp = getJSON(t, srv, "/v1/scenarios/nope")
	wantStatus(t, resp, http.StatusNotFound)
	resp.Body.Close()

	// Duplicates conflict; invalid specs and unknown fields are 400s.
	resp = postJSON(t, srv, "/v1/scenarios", edgeSpec())
	wantStatus(t, resp, http.StatusConflict)
	resp.Body.Close()
	bad := edgeSpec()
	bad.Name = "bad-kind"
	bad.Groups[0].Kind = "blockchain"
	resp = postJSON(t, srv, "/v1/scenarios", bad)
	wantStatus(t, resp, http.StatusBadRequest)
	resp.Body.Close()
	resp = postJSON(t, srv, "/v1/scenarios", map[string]any{"name": "x", "bogus_field": 1})
	wantStatus(t, resp, http.StatusBadRequest)
	resp.Body.Close()

	// The registered scenario is immediately trainable.
	resp = postJSON(t, srv, "/v1/models", registry.Spec{Scenario: "edge-pop", Model: "linear", Target: "util", Hours: 0.2})
	wantStatus(t, resp, http.StatusAccepted)
	resp.Body.Close()
}

// TestScenarioNameCap: scenario and group names are capped at
// core.MaxScenarioNameLen characters, and at the cap the largest valid
// ingest (MaxIngestBatch records on a MaxScenarioGroups-group scenario)
// fits under MaxJSONBytes and is accepted.
func TestScenarioNameCap(t *testing.T) {
	_, srv := newStreamingServer(t)
	name := func(prefix string, n int) string { return prefix + strings.Repeat("x", n-len(prefix)) }
	kinds := []string{"firewall", "monitor"}
	sp := core.ScenarioSpec{
		Name:    name("wide-", core.MaxScenarioNameLen),
		Traffic: core.TrafficSpec{BaseFPS: 2000, DiurnalAmplitude: 0.3, PeakHour: 12},
		SLO:     core.SLOSpec{MaxLatencyMs: 5, MaxLossRate: 0.01},
	}
	for i := 0; i < core.MaxScenarioGroups; i++ {
		sp.Groups = append(sp.Groups, core.GroupSpec{Name: name(fmt.Sprintf("g%02d-", i), core.MaxScenarioNameLen), Kind: kinds[i%2], Replicas: 1, CoresPerInstance: 2})
	}

	over := sp
	over.Name = name("wide-", core.MaxScenarioNameLen+1)
	resp := postJSON(t, srv, "/v1/scenarios", over)
	wantStatus(t, resp, http.StatusBadRequest)
	resp.Body.Close()
	over = sp
	over.Groups = append([]core.GroupSpec(nil), sp.Groups...)
	over.Groups[3].Name = name("g03-", core.MaxScenarioNameLen+1)
	resp = postJSON(t, srv, "/v1/scenarios", over)
	wantStatus(t, resp, http.StatusBadRequest)
	resp.Body.Close()

	resp = postJSON(t, srv, "/v1/scenarios", sp)
	wantStatus(t, resp, http.StatusCreated)
	resp.Body.Close()
	sim := false
	resp = postJSON(t, srv, "/v1/feeds", FeedRequest{Name: "wide", Scenario: sp.Name, Simulate: &sim})
	wantStatus(t, resp, http.StatusCreated)
	resp.Body.Close()
	body, err := json.Marshal(IngestRequest{Records: specRecords(t, sp, 5, MaxIngestBatch)})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) >= MaxJSONBytes {
		t.Fatalf("a full ingest at the name cap is %d bytes, over MaxJSONBytes %d", len(body), MaxJSONBytes)
	}
	resp = postJSON(t, srv, "/v1/feeds/wide/records", json.RawMessage(body))
	wantStatus(t, resp, http.StatusOK)
	if got := decode[IngestResponse](t, resp); got.Accepted != MaxIngestBatch {
		t.Fatalf("accepted %d of %d", got.Accepted, MaxIngestBatch)
	}
	t.Logf("full ingest at the name cap: %d bytes (%d a record)", len(body), len(body)/MaxIngestBatch)
}

// TestFeedLifecycleAndIngest covers feed CRUD and the ingest schema
// contract.
func TestFeedLifecycleAndIngest(t *testing.T) {
	_, srv := newStreamingServer(t)
	resp := postJSON(t, srv, "/v1/scenarios", edgeSpec())
	wantStatus(t, resp, http.StatusCreated)
	resp.Body.Close()

	// A feed for an unknown scenario is rejected.
	resp = postJSON(t, srv, "/v1/feeds", FeedRequest{Name: "f", Scenario: "nope"})
	wantStatus(t, resp, http.StatusBadRequest)
	resp.Body.Close()

	sim := false
	resp = postJSON(t, srv, "/v1/feeds", FeedRequest{Name: "live", Scenario: "edge-pop", Simulate: &sim})
	wantStatus(t, resp, http.StatusCreated)
	created := decode[FeedInfo](t, resp)
	if created.Scenario != "edge-pop" || created.Simulate || created.Rate != 60 {
		t.Fatalf("feed %+v", created)
	}
	resp = postJSON(t, srv, "/v1/feeds", FeedRequest{Name: "live", Scenario: "edge-pop"})
	wantStatus(t, resp, http.StatusConflict)
	resp.Body.Close()

	recs := edgeRecords(t, 3, 8)
	resp = postJSON(t, srv, "/v1/feeds/live/records", IngestRequest{Records: recs})
	wantStatus(t, resp, http.StatusOK)
	if got := decode[IngestResponse](t, resp); got.Accepted != 8 {
		t.Fatalf("accepted %d", got.Accepted)
	}

	// A record violating the scenario schema is rejected with the index.
	badRec := recs[0]
	badRec.Chain.PerGroup = badRec.Chain.PerGroup[:1]
	resp = postJSON(t, srv, "/v1/feeds/live/records", IngestRequest{Records: []telemetry.Record{recs[1], badRec}})
	wantStatus(t, resp, http.StatusBadRequest)
	var ingestErr struct {
		Error     string `json:"error"`
		Accepted  int    `json:"accepted"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ingestErr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ingestErr.Accepted != 1 || !strings.Contains(ingestErr.Error, "record 1") {
		t.Fatalf("ingest error %+v", ingestErr)
	}
	if rid := resp.Header.Get(HeaderRequestID); rid == "" || ingestErr.RequestID != rid {
		t.Fatalf("partial-accept body request_id %q, header %q", ingestErr.RequestID, rid)
	}
	resp = postJSON(t, srv, "/v1/feeds/live/records", IngestRequest{})
	wantStatus(t, resp, http.StatusBadRequest)
	resp.Body.Close()
	resp = postJSON(t, srv, "/v1/feeds/nope/records", IngestRequest{Records: recs[:1]})
	wantStatus(t, resp, http.StatusNotFound)
	resp.Body.Close()

	resp = getJSON(t, srv, "/v1/feeds/live")
	wantStatus(t, resp, http.StatusOK)
	if got := decode[FeedInfo](t, resp); got.Stats.Ingested != 9 {
		t.Fatalf("stats %+v", got.Stats)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/feeds/live", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, dresp, http.StatusOK)
	dresp.Body.Close()
	resp = getJSON(t, srv, "/v1/feeds/live")
	wantStatus(t, resp, http.StatusNotFound)
	resp.Body.Close()
}

// TestSimulatedFeedStreamsSSE runs a real simulated feed at high rate and
// reads explained records off the SSE endpoint.
func TestSimulatedFeedStreamsSSE(t *testing.T) {
	s, srv := newStreamingServer(t)
	resp := postJSON(t, srv, "/v1/scenarios", edgeSpec())
	wantStatus(t, resp, http.StatusCreated)
	resp.Body.Close()
	resp = postJSON(t, srv, "/v1/models", registry.Spec{
		Name: "edge-model", Scenario: "edge-pop", Model: "cart", Target: "util", Hours: 0.2, Seed: 7,
	})
	wantStatus(t, resp, http.StatusAccepted)
	resp.Body.Close()
	waitBuild(t, s.Registry(), "edge-model")

	resp = postJSON(t, srv, "/v1/feeds", FeedRequest{Name: "sim", Scenario: "edge-pop", Rate: 86400})
	wantStatus(t, resp, http.StatusCreated)
	resp.Body.Close()

	stream := getJSON(t, srv, "/v1/models/edge-model/stream?feed=sim&limit=5&topk=3&batch=8")
	wantStatus(t, stream, http.StatusOK)
	defer stream.Body.Close()
	br := bufio.NewReader(stream.Body)
	event, data := readSSE(t, br)
	if event != "hello" {
		t.Fatalf("first event %q (%s)", event, data)
	}
	var hello StreamHello
	if err := json.Unmarshal(data, &hello); err != nil {
		t.Fatal(err)
	}
	if hello.Method == "" || hello.Feed != "sim" {
		t.Fatalf("hello %+v", hello)
	}
	var lastSeq uint64
	for i := 0; i < 5; i++ {
		event, data = readSSE(t, br)
		if event != "record" {
			t.Fatalf("event %d: %q (%s)", i, event, data)
		}
		var ev StreamEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Seq != lastSeq+1 || len(ev.Contributions) == 0 || len(ev.Contributions) > 3 {
			t.Fatalf("event %+v", ev)
		}
		lastSeq = ev.Seq
	}

	// Stream against a schema-mismatched feed is a 409, unknown feed 404,
	// missing feed param 400.
	resp = postJSON(t, srv, "/v1/feeds", FeedRequest{Name: "webfeed", Scenario: "web"})
	wantStatus(t, resp, http.StatusCreated)
	resp.Body.Close()
	resp = getJSON(t, srv, "/v1/models/edge-model/stream?feed=webfeed")
	wantStatus(t, resp, http.StatusConflict)
	resp.Body.Close()
	resp = getJSON(t, srv, "/v1/models/edge-model/stream?feed=nope")
	wantStatus(t, resp, http.StatusNotFound)
	resp.Body.Close()
	resp = getJSON(t, srv, "/v1/models/edge-model/stream")
	wantStatus(t, resp, http.StatusBadRequest)
	resp.Body.Close()
}

// TestStreamingEndToEnd is the acceptance test for the streaming plane: a
// scenario POSTed at runtime is trained, served, fed live telemetry, and
// drift-retrained — without restarting the process. The stream shifts
// regime after a stable phase; the drift monitor flags it, a retrain job
// trains on the streamed window and hot-swaps the model (observable as
// retrains=1 on the model), and the SSE stream keeps serving.
func TestStreamingEndToEnd(t *testing.T) {
	s, srv := newStreamingServer(t)

	// 1. Register a new topology at runtime.
	resp := postJSON(t, srv, "/v1/scenarios", edgeSpec())
	wantStatus(t, resp, http.StatusCreated)
	resp.Body.Close()

	// 2. Train a model for it (async, like any POST /v1/models).
	resp = postJSON(t, srv, "/v1/models", registry.Spec{
		Name: "edge/cart/latency", Scenario: "edge-pop", Model: "cart", Target: "latency", Hours: 0.3, Seed: 7,
	})
	wantStatus(t, resp, http.StatusAccepted)
	resp.Body.Close()
	waitBuild(t, s.Registry(), "edge/cart/latency")

	// 3. Open an ingest-only feed and attach the model with a tiny drift
	// window so the test stays fast.
	sim := false
	resp = postJSON(t, srv, "/v1/feeds", FeedRequest{Name: "live", Scenario: "edge-pop", Simulate: &sim})
	wantStatus(t, resp, http.StatusCreated)
	resp.Body.Close()
	resp = postJSON(t, srv, "/v1/feeds/live/attach", AttachRequest{
		Model:          "edge/cart/latency",
		MaxRows:        256,
		MinRetrainRows: 24,
		// A tiny window with error-drift dominant: the regime shift moves
		// features too, but a CART's out-of-range predictions clamp, so
		// the MAE ratio fires reliably. MeanShift is set high to keep the
		// trigger kind deterministic.
		Drift: feed.DriftConfig{Baseline: 20, Recent: 8, ErrorRatio: 3, MeanShift: 1e6, Cooldown: 1 << 20},
	})
	wantStatus(t, resp, http.StatusCreated)
	attInfo := decode[AttachmentInfo](t, resp)
	if attInfo.Model != "edge/cart/latency" || !attInfo.AutoRetrain {
		t.Fatalf("attachment %+v", attInfo)
	}
	// A duplicate attach conflicts.
	resp = postJSON(t, srv, "/v1/feeds/live/attach", AttachRequest{Model: "edge/cart/latency"})
	wantStatus(t, resp, http.StatusConflict)
	resp.Body.Close()

	// 4. Stream a stable phase: records from the same scenario (different
	// seed), whose latencies the model predicts well — this builds the
	// drift baseline.
	recs := edgeRecords(t, 11, 110)
	resp = postJSON(t, srv, "/v1/feeds/live/records", IngestRequest{Records: recs[:70]})
	wantStatus(t, resp, http.StatusOK)
	resp.Body.Close()

	// 5. Regime shift: a congested downstream link multiplies latencies
	// far beyond the trained range. The tree clamps its predictions, the
	// recent MAE blows past 3× baseline, drift fires, and an automatic
	// retrain job hot-swaps the model.
	shifted := make([]telemetry.Record, 0, 40)
	for _, rec := range recs[70:] {
		rec.Chain.LatencyMs *= 12
		for g := range rec.Chain.PerGroup {
			rec.Chain.PerGroup[g].LatencyMs *= 12
		}
		shifted = append(shifted, rec)
	}
	resp = postJSON(t, srv, "/v1/feeds/live/records", IngestRequest{Records: shifted})
	wantStatus(t, resp, http.StatusOK)
	resp.Body.Close()

	// 6. Observe the drift-triggered retrain: the model's retrain counter
	// flips to 1 and its ready_at moves forward.
	deadline := time.Now().Add(60 * time.Second)
	var model ModelInfo
	for {
		resp = getJSON(t, srv, "/v1/models/edge/cart/latency")
		wantStatus(t, resp, http.StatusOK)
		model = decode[ModelInfo](t, resp)
		if model.Retrains >= 1 {
			break
		}
		if time.Now().After(deadline) {
			fresp := getJSON(t, srv, "/v1/feeds/live")
			finfo := decode[FeedInfo](t, fresp)
			jresp := getJSON(t, srv, "/v1/jobs")
			jobs := decode[JobListResponse](t, jresp)
			t.Fatalf("no retrain observed; model %+v feed %+v jobs %+v", model, finfo, jobs)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if model.Status != "ready" {
		t.Fatalf("model status %q after retrain", model.Status)
	}

	// The retrain job is visible (and done) under the model's jobs.
	resp = getJSON(t, srv, "/v1/models/edge/cart/latency/jobs")
	wantStatus(t, resp, http.StatusOK)
	jobs := decode[JobListResponse](t, resp).Jobs
	var retrainJob *JobInfo
	for i := range jobs {
		if jobs[i].Kind == JobRetrain {
			retrainJob = &jobs[i]
		}
	}
	if retrainJob == nil {
		t.Fatalf("no retrain job in %+v", jobs)
	}
	waitJob := func(id string) JobInfo {
		for {
			resp := getJSON(t, srv, "/v1/jobs/"+id)
			wantStatus(t, resp, http.StatusOK)
			info := decode[JobInfo](t, resp)
			if info.Status != "pending" && info.Status != "running" {
				return info
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck: %+v", id, info)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	final := waitJob(retrainJob.ID)
	if final.Status != "done" {
		t.Fatalf("retrain job %+v", final)
	}

	// The attachment's monitor saw the drift.
	resp = getJSON(t, srv, "/v1/feeds/live")
	wantStatus(t, resp, http.StatusOK)
	finfo := decode[FeedInfo](t, resp)
	if len(finfo.Attachments) != 1 || finfo.Attachments[0].Drifts < 1 || finfo.Attachments[0].LastDrift == nil {
		t.Fatalf("attachments %+v", finfo.Attachments)
	}

	// 7. The retrained model keeps serving the stream: open the SSE
	// endpoint, then ingest more records once the hello event confirms
	// the subscription is live, and read explained events back.
	stream := getJSON(t, srv, "/v1/models/edge/cart/latency/stream?feed=live&limit=2&topk=4")
	wantStatus(t, stream, http.StatusOK)
	br := bufio.NewReader(stream.Body)
	if event, data := readSSE(t, br); event != "hello" {
		t.Fatalf("first stream event %q (%s)", event, data)
	}
	resp = postJSON(t, srv, "/v1/feeds/live/records", IngestRequest{Records: shifted[:10]})
	wantStatus(t, resp, http.StatusOK)
	resp.Body.Close()
	for i := 0; i < 2; i++ {
		event, data := readSSE(t, br)
		if event != "record" {
			t.Fatalf("stream event %q (%s)", event, data)
		}
		var ev StreamEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Prediction == 0 && ev.Base == 0 {
			t.Fatalf("empty explanation %+v", ev)
		}
	}
	stream.Body.Close()

	// 8. A manual retrain through the jobs API lands a second hot-swap.
	resp = postJSON(t, srv, "/v1/models/edge/cart/latency/jobs", JobRequest{Kind: JobRetrain})
	wantStatus(t, resp, http.StatusAccepted)
	manual := decode[JobInfo](t, resp)
	if got := waitJob(manual.ID); got.Status != "done" {
		t.Fatalf("manual retrain %+v", got)
	}
	resp = getJSON(t, srv, "/v1/models/edge/cart/latency")
	if got := decode[ModelInfo](t, resp); got.Retrains != 2 {
		t.Fatalf("retrains %d after manual retrain", got.Retrains)
	}
	// A retrain for an unattached model is a clear client error.
	resp = postJSON(t, srv, "/v1/scenarios", func() core.ScenarioSpec {
		sp := edgeSpec()
		sp.Name = "edge-pop-2"
		return sp
	}())
	wantStatus(t, resp, http.StatusCreated)
	resp.Body.Close()
	resp = postJSON(t, srv, "/v1/models", registry.Spec{
		Name: "unattached", Scenario: "edge-pop-2", Model: "linear", Target: "util", Hours: 0.2,
	})
	wantStatus(t, resp, http.StatusAccepted)
	resp.Body.Close()
	waitBuild(t, s.Registry(), "unattached")
	resp = postJSON(t, srv, "/v1/models/unattached/jobs", JobRequest{Kind: JobRetrain})
	wantStatus(t, resp, http.StatusBadRequest)
	resp.Body.Close()
}

// TestAutoRetrainRateLimited pins the wall-clock floor on drift-triggered
// retrains: repeated drift flags within min_retrain_interval_sec submit
// one job, while the flags themselves stay observable.
func TestAutoRetrainRateLimited(t *testing.T) {
	s, srv := newStreamingServer(t)
	resp := postJSON(t, srv, "/v1/scenarios", edgeSpec())
	wantStatus(t, resp, http.StatusCreated)
	resp.Body.Close()
	resp = postJSON(t, srv, "/v1/models", registry.Spec{
		Name: "rl", Scenario: "edge-pop", Model: "cart", Target: "latency", Hours: 0.3, Seed: 7,
	})
	wantStatus(t, resp, http.StatusAccepted)
	resp.Body.Close()
	waitBuild(t, s.Registry(), "rl")
	sim := false
	resp = postJSON(t, srv, "/v1/feeds", FeedRequest{Name: "rlfeed", Scenario: "edge-pop", Simulate: &sim})
	wantStatus(t, resp, http.StatusCreated)
	resp.Body.Close()
	// Tiny cooldown so drift re-flags every few records, but a one-hour
	// interval floor: only the first flag may submit a retrain.
	resp = postJSON(t, srv, "/v1/feeds/rlfeed/attach", AttachRequest{
		Model:                 "rl",
		MinRetrainRows:        1 << 20, // retrain job would fail anyway; keep it from swapping
		MinRetrainIntervalSec: 3600,
		Drift:                 feed.DriftConfig{Baseline: 10, Recent: 4, ErrorRatio: 2, MeanShift: 1e6, Cooldown: 1},
	})
	wantStatus(t, resp, http.StatusCreated)
	resp.Body.Close()

	recs := edgeRecords(t, 11, 80)
	for i := range recs[40:] {
		recs[40+i].Chain.LatencyMs *= 12
	}
	resp = postJSON(t, srv, "/v1/feeds/rlfeed/records", IngestRequest{Records: recs})
	wantStatus(t, resp, http.StatusOK)
	resp.Body.Close()

	deadline := time.Now().Add(30 * time.Second)
	var att AttachmentInfo
	for {
		resp = getJSON(t, srv, "/v1/feeds/rlfeed")
		info := decode[FeedInfo](t, resp)
		att = info.Attachments[0]
		// RetrainJobs counts a job once the runner starts it, which can
		// trail the drift that submitted it.
		if att.Records == 80 && att.Drifts >= 2 && att.RetrainJobs >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("attachment %+v", att)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if att.RetrainJobs != 1 {
		t.Fatalf("retrain jobs %d with %d drifts, want exactly 1", att.RetrainJobs, att.Drifts)
	}
}
