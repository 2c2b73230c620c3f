package serve

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nfvxai/internal/core"
	"nfvxai/internal/experiment"
	"nfvxai/internal/registry"
)

// storeServer boots a node through Open over the store bucket st (no
// store when nil) and serves it. The node holds the shared test pipeline
// as "web/rf/util" unless the store restored that model.
func storeServer(t *testing.T, st registry.BlobBackend) (*Node, *httptest.Server) {
	t.Helper()
	n, err := Open(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	reg := n.Registry()
	reg.OnStoreError = func(err error) { t.Errorf("store error: %v", err) }
	if _, err := reg.Get("web/rf/util"); err != nil {
		sp := registry.Spec{Scenario: "web", Model: "rf", Target: "util", Hours: 1, Seed: 2}
		if _, err := reg.AddReady(sp, pipeline(t), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	return n, httptest.NewServer(n)
}

// TestColdWarmRestartPredictParity is the kill-and-restart smoke: a node
// booted through Open trains two models into a filesystem store and is
// torn down, and a second node booted from the same store must answer
// with the same bytes. Equal created_at, ready_at and retrains in the
// model list and in each model's info show that the second boot restored
// the models instead of training them; the default alias comes back from
// the store; predictions match bit for bit.
func TestColdWarmRestartPredictParity(t *testing.T) {
	st, err := registry.OpenFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Store: st.Backend(),
		Models: []registry.Spec{
			{Name: "web/rf/util", Scenario: "web", Model: "rf", Target: "util", Hours: 1, Seed: 2},
			{Name: "web/linear/util", Scenario: "web", Model: "linear", Target: "util", Hours: 1, Seed: 2},
		},
		Default: "web/linear/util", // a background build
	}
	boot := func() (*Node, *httptest.Server) {
		t.Helper()
		n, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		built, err := n.Registry().Built("web/linear/util")
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-built:
		case <-time.After(60 * time.Second):
			t.Fatal("background build did not finish")
		}
		return n, httptest.NewServer(n)
	}
	read := func(srv *httptest.Server, path string) []byte {
		t.Helper()
		resp := getJSON(t, srv, path)
		defer resp.Body.Close()
		wantStatus(t, resp, http.StatusOK)
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	paths := []string{"/v1/models", "/v1/models/web/rf/util", "/v1/models/web/linear/util"}

	n1, srv1 := boot()
	cold := map[string][]byte{}
	for _, path := range paths {
		cold[path] = read(srv1, path)
	}
	body := map[string]any{"instances": pipeline(t).Test.X[:8]}
	resp := postJSON(t, srv1, "/v1/models/web/rf/util/predict", body)
	wantStatus(t, resp, http.StatusOK)
	coldPred := decode[BatchPredictResponse](t, resp)
	srv1.Close()
	n1.Close()

	// "Killed and restarted": a brand new node over the same store, with
	// no -default, so the alias can only come from the store.
	cfg.Default = ""
	n2, srv2 := boot()
	defer srv2.Close()
	defer n2.Close()
	for _, path := range paths {
		if warm := read(srv2, path); !bytes.Equal(warm, cold[path]) {
			t.Errorf("GET %s across the restart:\ncold %s\nwarm %s", path, cold[path], warm)
		}
	}
	if got := n2.Registry().DefaultName(); got != "web/linear/util" {
		t.Errorf("default after restart = %q, want web/linear/util", got)
	}
	resp = postJSON(t, srv2, "/v1/models/web/rf/util/predict", body)
	wantStatus(t, resp, http.StatusOK)
	warmPred := decode[BatchPredictResponse](t, resp)
	if len(coldPred.Predictions) != len(warmPred.Predictions) {
		t.Fatal("prediction count differs")
	}
	for i := range coldPred.Predictions {
		if math.Float64bits(coldPred.Predictions[i]) != math.Float64bits(warmPred.Predictions[i]) {
			t.Fatalf("prediction %d: %v != %v", i, warmPred.Predictions[i], coldPred.Predictions[i])
		}
	}

	// Explanations survive the restart too.
	explain := map[string]any{"features": pipeline(t).Test.X[0], "topk": 3}
	r1 := postJSON(t, srv2, "/v1/models/web/rf/util/explain", explain)
	wantStatus(t, r1, http.StatusOK)
	got := decode[ExplainResponse](t, r1)
	if got.Method != "treeshap" || len(got.Contributions) != 3 {
		t.Fatalf("explain after restart: %+v", got)
	}
}

func TestArtifactExportImport(t *testing.T) {
	_, srv := storeServer(t, nil)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/models/web/rf/util/artifact")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusOK)
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("content type %q", ct)
	}
	art, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Import into the same server under a new name.
	resp, err = http.Post(srv.URL+"/v1/models/import?name=imported/rf", "application/octet-stream", bytes.NewReader(art))
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusCreated)
	info := decode[ModelInfo](t, resp)
	if info.Name != "imported/rf" || info.Status != "ready" {
		t.Fatalf("imported = %+v", info)
	}

	// The imported model serves identical predictions.
	x := pipeline(t).Test.X[0]
	p1 := decode[PredictResponse](t, postJSON(t, srv, "/v1/models/web/rf/util/predict", map[string]any{"features": x}))
	p2 := decode[PredictResponse](t, postJSON(t, srv, "/v1/models/imported/rf/predict", map[string]any{"features": x}))
	if math.Float64bits(p1.Prediction) != math.Float64bits(p2.Prediction) {
		t.Fatal("imported model predicts differently")
	}

	// Collision without override name → 409 (artifact embeds web/rf/util).
	resp, err = http.Post(srv.URL+"/v1/models/import", "application/octet-stream", bytes.NewReader(art))
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusConflict)

	// Garbage artifact → 400.
	resp, err = http.Post(srv.URL+"/v1/models/import", "application/octet-stream", strings.NewReader("not an artifact"))
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusBadRequest)

	// Exporting a missing model → 404.
	resp, err = http.Get(srv.URL + "/v1/models/nope/artifact")
	if err != nil {
		t.Fatal(err)
	}
	wantStatus(t, resp, http.StatusNotFound)
}

func TestExperimentsAPI(t *testing.T) {
	st, err := registry.OpenFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, srv := storeServer(t, st.Backend())
	defer srv.Close()
	defer s.Close()
	jobDone := make(chan string, 8)
	s.NotifyJobs(jobDone)

	spec := experiment.Spec{
		Name:           "api-sweep",
		Scenarios:      []string{"web"},
		Models:         []string{"linear", "cart"},
		Methods:        []string{"kernelshap"},
		Hours:          0.2,
		Seed:           5,
		Samples:        2,
		ShapSamples:    32,
		DeletionTrials: 2,
	}
	resp := postJSON(t, srv, "/v1/experiments", spec)
	wantStatus(t, resp, http.StatusAccepted)
	accepted := decode[ExperimentInfo](t, resp)
	if accepted.ID == "" || accepted.Status != "pending" {
		t.Fatalf("accepted = %+v", accepted)
	}

	select {
	case <-jobDone:
	case <-time.After(60 * time.Second):
		t.Fatal("experiment did not finish")
	}

	resp = getJSON(t, srv, "/v1/experiments/"+accepted.ID)
	wantStatus(t, resp, http.StatusOK)
	info := decode[struct {
		ID     string            `json:"id"`
		Status string            `json:"status"`
		Result experiment.Matrix `json:"result"`
	}](t, resp)
	if info.Status != "done" || len(info.Result.Cells) != 2 {
		t.Fatalf("experiment = %+v", info)
	}
	for _, c := range info.Result.Cells {
		if c.Error != "" || c.Skipped || c.MeanDeletionAUC == nil {
			t.Fatalf("cell = %+v", c)
		}
	}

	// The matrix was persisted: a fresh server over the same store serves
	// it even though its job table is empty.
	s2, srv2 := storeServer(t, st.Backend())
	defer srv2.Close()
	defer s2.Close()
	resp = getJSON(t, srv2, "/v1/experiments")
	wantStatus(t, resp, http.StatusOK)
	list := decode[ExperimentListResponse](t, resp)
	if len(list.Experiments) != 1 || !list.Experiments[0].Persisted {
		t.Fatalf("list = %+v", list)
	}
	resp = getJSON(t, srv2, "/v1/experiments/"+accepted.ID)
	wantStatus(t, resp, http.StatusOK)
	restored := decode[struct {
		Persisted bool              `json:"persisted"`
		Result    experiment.Matrix `json:"result"`
	}](t, resp)
	if !restored.Persisted || len(restored.Result.Cells) != 2 {
		t.Fatalf("restored = %+v", restored)
	}

	// Bad specs are the client's 400.
	resp = postJSON(t, srv, "/v1/experiments", experiment.Spec{Scenarios: []string{"mars"}, Models: []string{"rf"}, Methods: []string{"lime"}})
	wantStatus(t, resp, http.StatusBadRequest)
	resp = postJSON(t, srv, "/v1/experiments", map[string]any{"bogus_field": 1})
	wantStatus(t, resp, http.StatusBadRequest)
	resp = getJSON(t, srv, "/v1/experiments/nope")
	wantStatus(t, resp, http.StatusNotFound)
}

// TestCloseWaitsForJobFlush pins the shutdown ordering: Close must not
// return while a job runner is still writing. The slow runner here
// stands in for a retrain/experiment flushing its artifact.
func TestCloseWaitsForJobFlush(t *testing.T) {
	s, srv := storeServer(t, nil)
	defer srv.Close()

	flushed := make(chan struct{})
	started := make(chan struct{})
	_, err := s.jobs.submit("web/rf/util", "experiment", JobParams{}, nil,
		func(ctx context.Context, _ *core.Pipeline, _ JobParams, _ func(float64)) (any, error) {
			close(started)
			// Simulate the post-cancellation artifact flush a retrain or
			// experiment performs before returning.
			time.Sleep(150 * time.Millisecond)
			close(flushed)
			return nil, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	s.Close()
	select {
	case <-flushed:
		// Close returned only after the runner finished its flush.
	default:
		t.Fatal("Close returned before the job flushed")
	}
}

// TestScenarioRegistrationPersists pins that POST /v1/scenarios writes
// the manifest immediately — a scenario registered at runtime survives a
// restart even when no model persist ever runs afterwards.
func TestScenarioRegistrationPersists(t *testing.T) {
	st, err := registry.OpenFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s1, srv1 := storeServer(t, st.Backend())
	spec := core.WebScenarioSpec()
	spec.Name = "runtime-web"
	resp := postJSON(t, srv1, "/v1/scenarios", spec)
	wantStatus(t, resp, http.StatusCreated)
	resp.Body.Close()
	srv1.Close()
	s1.Close()

	s2, srv2 := storeServer(t, st.Backend())
	defer srv2.Close()
	defer s2.Close()
	resp = getJSON(t, srv2, "/v1/scenarios/runtime-web")
	wantStatus(t, resp, http.StatusOK)
	resp.Body.Close()
}

// TestExperimentIDsSurviveRestart pins the id-collision fix: a restart
// must not mint a job id that overwrites a persisted experiment matrix.
func TestExperimentIDsSurviveRestart(t *testing.T) {
	st, err := registry.OpenFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a prior process having persisted job-000003.
	if err := st.PutExperiment("job-000003", []byte(`{"spec":{},"cells":[]}`)); err != nil {
		t.Fatal(err)
	}
	s, srv := storeServer(t, st.Backend())
	defer srv.Close()
	defer s.Close()
	done := make(chan string, 4)
	s.NotifyJobs(done)
	spec := experiment.Spec{
		Scenarios: []string{"web"}, Models: []string{"cart"}, Methods: []string{"treeshap"},
		Hours: 0.2, Seed: 1, Samples: 1, ShapSamples: 16, DeletionTrials: 2,
	}
	resp := postJSON(t, srv, "/v1/experiments", spec)
	wantStatus(t, resp, http.StatusAccepted)
	accepted := decode[ExperimentInfo](t, resp)
	if accepted.ID <= "job-000003" {
		t.Fatalf("new experiment id %q does not advance past persisted job-000003", accepted.ID)
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("experiment did not finish")
	}
	// The prior matrix is untouched.
	data, err := st.GetExperiment("job-000003")
	if err != nil || string(data) != `{"spec":{},"cells":[]}` {
		t.Fatalf("persisted matrix was overwritten: %s, %v", data, err)
	}
}

// TestSubmitAfterCloseRejected pins the shutdown race fix: a job
// submitted after Close's cancel sweep must be rejected, not silently
// started and never waited for.
func TestSubmitAfterCloseRejected(t *testing.T) {
	s, srv := storeServer(t, nil)
	defer srv.Close()
	s.Close()
	if _, err := s.jobs.submit("m", "experiment", JobParams{}, nil,
		func(ctx context.Context, _ *core.Pipeline, _ JobParams, _ func(float64)) (any, error) {
			return nil, nil
		}); err == nil {
		t.Fatal("submit after Close succeeded")
	}
}

// TestReservedArtifactSegments pins that model names cannot shadow the
// new artifact/import endpoints.
func TestReservedArtifactSegments(t *testing.T) {
	for _, name := range []string{"a/artifact", "import"} {
		if err := registry.ValidateName(name); err == nil {
			t.Errorf("name %q should be reserved", name)
		}
	}
}
