package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nfvxai/internal/core"
	"nfvxai/internal/feed"
	"nfvxai/internal/nfv/telemetry"
	"nfvxai/internal/registry"
	"nfvxai/internal/serve"
)

var (
	chaosPipeline     *core.Pipeline
	chaosPipelineOnce sync.Once
)

// trainPipeline trains one small forest pipeline shared by the suite.
func trainPipeline(t *testing.T) *core.Pipeline {
	t.Helper()
	chaosPipelineOnce.Do(func() {
		ds, err := core.WebScenario().GenerateDataset(1, 1, telemetry.TargetBottleneckUtil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.NewPipeline(core.ModelForest, ds, 2)
		if err != nil {
			t.Fatal(err)
		}
		p.ShapSamples = 128
		chaosPipeline = p
	})
	return chaosPipeline
}

// stack is one node booted through serve.Open over a fault-injected
// store: FSBlob ← ChaosBlob(errRate) ← RetryBlob ← Store ← Registry. The
// node boots over a healthy store; the faults start once it is up.
type stack struct {
	reg       *registry.Registry
	chaos     *registry.ChaosBlob
	srv       *httptest.Server
	storeErrs atomic.Int64
}

func newStack(t *testing.T, errRate float64, seed int64) *stack {
	t.Helper()
	fs, err := registry.OpenFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := &stack{}
	st.chaos = registry.NewChaosBlob(fs.Backend(), registry.ChaosConfig{Seed: seed})
	node, err := serve.Open(serve.Config{
		Store: st.chaos,
		Retry: registry.RetryConfig{
			Seed:  seed,
			Sleep: func(time.Duration) {}, // no real backoff sleeps in tests
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st.chaos.SetErrRate(errRate)
	st.reg = node.Registry()
	st.reg.OnStoreError = func(error) { st.storeErrs.Add(1) }
	if _, err := st.reg.AddReady(registry.Spec{Name: "default"}, trainPipeline(t), time.Now()); err != nil {
		t.Fatal(err)
	}
	st.srv = httptest.NewServer(node)
	t.Cleanup(func() {
		st.srv.Close()
		node.Close()
	})
	return st
}

func (st *stack) post(path string, body any) (*http.Response, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return http.Post(st.srv.URL+path, "application/json", bytes.NewReader(buf))
}

func (st *stack) get(path string) (*http.Response, error) {
	return http.Get(st.srv.URL + path)
}

// allowedStatus is the closed set of statuses the resilience plane may
// return under fault injection: success (possibly degraded/partial),
// client errors, or the typed overload/timeout family. Anything else —
// in particular a 500 from a panic or an unclassified store error
// leaking into serving — fails the suite.
var allowedStatus = map[int]bool{
	http.StatusOK:                 true,
	http.StatusAccepted:           true,
	http.StatusCreated:            true,
	http.StatusBadRequest:         true,
	http.StatusNotFound:           true,
	http.StatusConflict:           true,
	http.StatusTooManyRequests:    true,
	http.StatusServiceUnavailable: true,
	http.StatusGatewayTimeout:     true,
}

// checkResponse enforces the per-response invariants and returns the
// status code. Safe to call from worker goroutines (uses t.Errorf).
func checkResponse(t *testing.T, what string, resp *http.Response, err error) int {
	t.Helper()
	if err != nil {
		t.Errorf("%s: transport error: %v", what, err)
		return 0
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("%s: reading body: %v", what, err)
		return resp.StatusCode
	}
	if !allowedStatus[resp.StatusCode] {
		t.Errorf("%s: status %d outside the resilience contract (body %s)", what, resp.StatusCode, body)
		return resp.StatusCode
	}
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Errorf("%s: status %d with non-JSON body %q", what, resp.StatusCode, body)
	}
	return resp.StatusCode
}

// TestChaosServingInvariants hammers the budgeted serving plane with
// concurrent explains, predicts and health probes while every store
// operation fails 20%% of the time. Every response must satisfy the
// resilience contract; at least some explains must still succeed.
func TestChaosServingInvariants(t *testing.T) {
	st := newStack(t, 0.2, 42)
	p := trainPipeline(t)
	instance := append([]float64(nil), p.Train.X[0]...)

	const workers, rounds = 6, 8
	var ok200 atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch i % 4 {
				case 0:
					resp, err := st.post("/v1/models/default/explain", map[string]any{
						"features":  instance,
						"method":    "kernelshap",
						"budget_ms": 200,
					})
					if checkResponse(t, "explain", resp, err) == http.StatusOK {
						ok200.Add(1)
					}
				case 1:
					resp, err := st.post("/v1/models/default/predict", map[string]any{
						"features": instance,
					})
					checkResponse(t, "predict", resp, err)
				case 2:
					resp, err := st.get("/healthz")
					checkResponse(t, "healthz", resp, err)
				case 3:
					resp, err := st.get("/readyz")
					checkResponse(t, "readyz", resp, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if ok200.Load() == 0 {
		t.Fatal("no explain succeeded under 20% store chaos; store faults must not gate inference")
	}
}

// TestChaosSwapNeverWedges hot-swaps the default model repeatedly while
// explains are in flight and every store write may fail. Swap must stay
// non-blocking and non-fatal (persistence errors route to OnStoreError),
// and the retrain count must land in /readyz.
func TestChaosSwapNeverWedges(t *testing.T) {
	st := newStack(t, 0.2, 7)
	p := trainPipeline(t)
	instance := append([]float64(nil), p.Train.X[0]...)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := st.post("/explain", map[string]any{"features": instance, "budget_ms": 200})
			checkResponse(t, "explain-during-swap", resp, err)
		}
	}()

	const swaps = 5
	for i := 0; i < swaps; i++ {
		if _, err := st.reg.Swap("default", p, time.Now()); err != nil {
			t.Fatalf("swap %d: %v (store chaos must never fail a swap)", i, err)
		}
	}
	close(stop)
	wg.Wait()

	resp, err := st.get("/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr serve.ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Models) != 1 || rr.Models[0].Retrains != swaps {
		t.Fatalf("readyz models = %+v; want retrains %d surfaced", rr.Models, swaps)
	}
	if rr.Store == nil {
		t.Fatal("readyz must report store health when a RetryBlob is attached")
	}
	if st.chaos.Injected() == 0 {
		t.Fatal("chaos store injected nothing; the test exercised no faults")
	}
}

// TestChaosTotalStoreOutage runs with a 100%% store error rate: every
// persistence attempt fails, the retry breaker opens, and yet inference
// keeps answering. Health must degrade (store state != ok) without the
// endpoints gating traffic.
func TestChaosTotalStoreOutage(t *testing.T) {
	st := newStack(t, 1.0, 3)
	p := trainPipeline(t)
	instance := append([]float64(nil), p.Train.X[0]...)

	// Hammer persistence until the breaker trips (default threshold 5
	// consecutive exhausted operations; each swap exhausts one).
	for i := 0; i < 6; i++ {
		if _, err := st.reg.Swap("default", p, time.Now()); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	if st.storeErrs.Load() == 0 {
		t.Fatal("no store errors reported under a total outage")
	}

	resp, err := st.post("/explain", map[string]any{"features": instance, "budget_ms": 500})
	if err != nil {
		t.Fatal(err)
	}
	if got := checkResponse(t, "explain-during-outage", resp, err); got != http.StatusOK {
		t.Fatalf("explain = %d during store outage; persistence must not gate inference", got)
	}

	resp, err = st.get("/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr serve.ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Store == nil || rr.Store.State == registry.StoreStateOK {
		t.Fatalf("store health = %+v; a total outage must degrade store state", rr.Store)
	}
	if rr.Store.State == registry.StoreStateOpen && rr.Status != "degraded" {
		t.Fatalf("readyz status = %q with breaker open; want degraded", rr.Status)
	}
}

// TestChaosFeedFaults runs a simulated feed with injected stalls under
// store chaos, and checks the ingest path keeps returning typed 400s for
// malformed input rather than anything worse.
func TestChaosFeedFaults(t *testing.T) {
	st := newStack(t, 0.2, 11)

	resp, err := st.post("/v1/feeds", serve.FeedRequest{
		Name:     "chaotic",
		Scenario: "web-sfc",
		Rate:     86400,
		Seed:     3,
		Fault:    &feed.Fault{StallProb: 0.5, StallTicks: 2},
	})
	if got := checkResponse(t, "create-feed", resp, err); got != http.StatusCreated {
		t.Fatalf("create feed = %d want 201", got)
	}

	// Malformed JSON and empty batches stay typed 400s under chaos.
	r2, err := http.Post(st.srv.URL+"/v1/feeds/chaotic/records", "application/json",
		strings.NewReader("{not json"))
	if got := checkResponse(t, "ingest-malformed", r2, err); got != http.StatusBadRequest {
		t.Fatalf("malformed ingest = %d want 400", got)
	}
	r3, err := st.post("/v1/feeds/chaotic/records", serve.IngestRequest{})
	if got := checkResponse(t, "ingest-empty", r3, err); got != http.StatusBadRequest {
		t.Fatalf("empty ingest = %d want 400", got)
	}

	// The fault injector must actually fire: poll the feed stats until a
	// stall shows up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := st.get("/v1/feeds/chaotic")
		if err != nil {
			t.Fatal(err)
		}
		var fi serve.FeedInfo
		err = json.NewDecoder(resp.Body).Decode(&fi)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if fi.Stats.Stalls >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v; injected stalls never fired", fi.Stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosWarmStart restores a registry from a store whose reads fail
// half the time. The restore must never panic or wedge: it either
// returns a typed error (manifest unreadable after retries) or a report
// whose restored models are immediately servable.
func TestChaosWarmStart(t *testing.T) {
	dir := t.TempDir()
	fs, err := registry.OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the store cleanly (no chaos on the write path).
	seedReg := registry.New()
	seedReg.OnStoreError = func(err error) { t.Errorf("seeding store error: %v", err) }
	seedReg.UseStore(fs)
	if _, err := seedReg.AddReady(registry.Spec{Name: "default"}, trainPipeline(t), time.Now()); err != nil {
		t.Fatal(err)
	}

	// Warm-start through a 50% read-failure store. With the default four
	// retry attempts the per-operation failure probability is ~6%, so
	// most runs restore; either way the invariants below must hold.
	fs2, err := registry.OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cs := registry.NewChaosBlob(fs2.Backend(), registry.ChaosConfig{ErrRate: 0.5, Seed: 21})
	rb := registry.NewRetryBlob(cs, registry.RetryConfig{
		Seed:             21,
		BreakerThreshold: 100, // keep the breaker out of this test's way
		Sleep:            func(time.Duration) {},
	})
	reg := registry.New()
	reg.OnStoreError = func(error) {}
	reg.UseStore(registry.NewStore(rb))

	rep, err := reg.SyncManifest(time.Now())
	if err != nil {
		// Typed failure is acceptable; a wedged or panicking restore is not.
		t.Logf("warm start failed cleanly: %v", err)
	}
	for _, name := range rep.Adopted {
		if _, err := reg.Lookup(name); err != nil {
			t.Fatalf("restored model %q not servable: %v", name, err)
		}
	}
	for _, re := range rep.Errors {
		t.Logf("restore error (tolerated): %v", fmt.Errorf("%s: %w", re.Name, re.Err))
	}
	// A second round over the same faulty store must also return
	// (already-restored models are skipped, nothing deadlocks).
	if _, err := reg.SyncManifest(time.Now()); err != nil {
		t.Logf("second warm start failed cleanly: %v", err)
	}
	// The warm starts alone draw too few operations to guarantee an
	// injection; drive enough reads that a silent (never-injecting)
	// chaos store cannot pass the suite.
	bare := registry.NewStore(cs)
	for i := 0; i < 32; i++ {
		_, _, _ = bare.GetManifest()
	}
	if cs.Injected() == 0 {
		t.Fatal("chaos store injected nothing across warm starts and 32 reads")
	}
}
