package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"nfvxai/internal/core"
	"nfvxai/internal/feed"
	"nfvxai/internal/registry"
	"nfvxai/internal/xai"
	"nfvxai/internal/xai/xcache"
)

// TestStatusOfTable: every typed error the serving layer answers maps to
// its documented status, bare and wrapped twice with %w.
func TestStatusOfTable(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{registry.ErrNotFound, http.StatusNotFound},
		{registry.ErrNotReady, http.StatusConflict},
		{registry.ErrExists, http.StatusConflict},
		{registry.ErrCorruptArtifact, http.StatusBadRequest},
		{registry.ErrArtifactVersion, http.StatusBadRequest},
		{registry.ErrArtifactNotFound, http.StatusNotFound},
		{registry.ErrStoreUnavailable, http.StatusServiceUnavailable},
		{xai.ErrUnknownMethod, http.StatusBadRequest},
		{xai.ErrInvalidOptions, http.StatusBadRequest},
		{xai.ErrUnsupportedModel, http.StatusConflict},
		{core.ErrUnknownFeature, http.StatusBadRequest},
		{core.ErrScenarioExists, http.StatusConflict},
		{feed.ErrFeedExists, http.StatusConflict},
		{feed.ErrFeedNotFound, http.StatusNotFound},
		{feed.ErrFeedClosed, http.StatusConflict},
		{feed.ErrTooManyFeeds, http.StatusTooManyRequests},
		{errSaturated, http.StatusServiceUnavailable},
		{errShuttingDown, http.StatusServiceUnavailable},
		{errJobTableFull, http.StatusTooManyRequests},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, http.StatusServiceUnavailable},
		{&http.MaxBytesError{Limit: MaxJSONBytes}, http.StatusRequestEntityTooLarge},
		{badRequest{errors.New("bad spec")}, http.StatusBadRequest},
		// A typed error inside a badRequest keeps its own status.
		{badRequest{registry.ErrExists}, http.StatusConflict},
		{badRequest{&http.MaxBytesError{Limit: MaxJSONBytes}}, http.StatusRequestEntityTooLarge},
		{errors.New("untyped"), http.StatusInternalServerError},
	} {
		wrapped := fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", tc.err))
		for _, err := range []error{tc.err, wrapped} {
			if got := statusOf(err); got != tc.want {
				t.Errorf("statusOf(%v) = %d, want %d", err, got, tc.want)
			}
		}
	}
}

// TestOverCapBodyIs413WhereverThePaddingSits: a predict padded past
// MaxJSONBytes after its JSON value gets the 413 naming the cap that the
// proxy hop answers, whether the body declares its length or not.
func TestOverCapBodyIs413WhereverThePaddingSits(t *testing.T) {
	p := pipeline(t)
	s := New(p)
	valid, err := json.Marshal(map[string]any{"features": p.Test.X[0]})
	if err != nil {
		t.Fatal(err)
	}
	padded := string(valid) + strings.Repeat(" ", MaxJSONBytes)
	unknownLength := &countingBody{tail: []byte(padded)}
	for name, body := range map[string]io.Reader{"declared length": strings.NewReader(padded), "unknown length": unknownLength} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/default/predict", body))
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), fmt.Sprint(MaxJSONBytes)) {
			t.Errorf("%s: %d %s, want 413 naming %d", name, rec.Code, rec.Body.Bytes(), MaxJSONBytes)
		}
	}
	if unknownLength.read > MaxJSONBytes+1 {
		t.Errorf("server read %d body bytes, limit %d", unknownLength.read, MaxJSONBytes)
	}
}

// TestTrailingDataIs400: a body must hold one JSON value and nothing
// after it but whitespace, on lax and strict (unknown-field) routes alike.
func TestTrailingDataIs400(t *testing.T) {
	p := pipeline(t)
	s := New(p)
	predict, err := json.Marshal(map[string]any{"features": p.Test.X[0]})
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := json.Marshal(edgeSpec())
	if err != nil {
		t.Fatal(err)
	}
	const predictPath = "/v1/models/default/predict"
	for _, tc := range []struct {
		path       string
		body, tail []byte
		want       int
	}{
		{predictPath, predict, []byte(" \t\r\n"), http.StatusOK},
		{predictPath, predict, []byte("x"), http.StatusBadRequest},
		{predictPath, predict, []byte(" {}"), http.StatusBadRequest},
		{predictPath, predict, []byte("]"), http.StatusBadRequest},
		{predictPath, predict, predict, http.StatusBadRequest},
		{"/v1/scenarios", scenario, []byte("x"), http.StatusBadRequest},
		{"/v1/scenarios", scenario, scenario, http.StatusBadRequest},
	} {
		body := append(append([]byte(nil), tc.body...), tc.tail...)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(body)))
		if rec.Code != tc.want {
			t.Errorf("%s with %q after the value: %d %s, want %d", tc.path, tc.tail, rec.Code, rec.Body.Bytes(), tc.want)
		}
	}
}

// TestExperimentStoreOutageIs503: a persisted experiment read while the
// store's circuit breaker is open answers 503, not an untyped 500.
func TestExperimentStoreOutageIs503(t *testing.T) {
	rb := registry.NewRetryBlob(
		registry.NewChaosBlob(registry.NewMemBlob(), registry.ChaosConfig{ErrRate: 1}),
		registry.RetryConfig{MaxAttempts: 1, BreakerThreshold: 1, BreakerCooldown: time.Hour, Sleep: func(time.Duration) {}},
	)
	reg := registry.New()
	reg.UseStore(registry.NewStore(rb))
	s := NewServer(reg)
	defer s.Close()
	// The first failing call trips the breaker; the next fails fast.
	if _, err := reg.StoreBackend().GetExperiment("job-000001"); err == nil {
		t.Fatal("chaos store served a read")
	}
	if st := rb.StoreHealth().State; st != registry.StoreStateOpen {
		t.Fatalf("breaker %q, want open", st)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/experiments/job-000001", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", rec.Code, rec.Body.Bytes())
	}
}

// TestRepeatedUnsupportedExplainSameReply: with a result cache attached,
// three identical unsupported-method explains answer the same 409 text.
func TestRepeatedUnsupportedExplainSameReply(t *testing.T) {
	srv, p, _ := cachedServer(t, xcache.Config{})
	var first string
	for i := 0; i < 3; i++ {
		resp := postJSON(t, srv, "/v1/models/default/explain", map[string]any{"features": p.Test.X[0], "method": "intgrad"})
		wantStatus(t, resp, http.StatusConflict)
		got := decode[map[string]string](t, resp)["error"]
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("explain %d answered %q, the first %q", i+1, got, first)
		}
	}
}

// TestImportBodyAllocation: a rejected import buffers its body once,
// sized from Content-Length, instead of growing a buffer through copies.
func TestImportBodyAllocation(t *testing.T) {
	s := NewServer(registry.New())
	defer s.Close()
	for _, size := range []int{16 << 20, 48 << 20} {
		req := httptest.NewRequest(http.MethodPost, importPath, bytes.NewReader(make([]byte, size)))
		rec := httptest.NewRecorder()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%d MiB of zeros: status %d (%s), want 400", size>>20, rec.Code, rec.Body.Bytes())
		}
		if ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(size); ratio > 1.5 {
			t.Errorf("%d MiB import allocated %.2f× its body, want at most 1.5×", size>>20, ratio)
		}
		debug.FreeOSMemory()
	}
}
