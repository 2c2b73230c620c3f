package registry

import (
	"errors"
	"testing"
	"time"
)

// stubBlob fails the first `failures` operations with failErr, then
// succeeds with zero values.
type stubBlob struct {
	failures int
	failErr  error
	calls    int
}

func (s *stubBlob) op() error {
	s.calls++
	if s.calls <= s.failures {
		return s.failErr
	}
	return nil
}

func (s *stubBlob) Put(string, []byte) error      { return s.op() }
func (s *stubBlob) Get(string) ([]byte, error)    { return nil, s.op() }
func (s *stubBlob) Delete(string) error           { return s.op() }
func (s *stubBlob) List(string) ([]string, error) { return nil, s.op() }

var errFlaky = errors.New("flaky I/O")

// fastRetry returns a config with no real sleeping and tiny cooldown.
func fastRetry(sleeps *[]time.Duration) RetryConfig {
	return RetryConfig{
		BreakerCooldown: time.Nanosecond,
		Sleep: func(d time.Duration) {
			if sleeps != nil {
				*sleeps = append(*sleeps, d)
			}
		},
	}
}

func TestTransientClassification(t *testing.T) {
	permanent := []error{nil, ErrBlobNotFound, ErrStoreUnavailable}
	for _, err := range permanent {
		if Transient(err) {
			t.Errorf("Transient(%v) = true, want false", err)
		}
	}
	if !Transient(errFlaky) {
		t.Errorf("Transient(%v) = false, want true", errFlaky)
	}
	if !Transient(ErrInjected) {
		t.Error("Transient(ErrInjected) = false, want true: chaos faults must be retryable")
	}
}

func TestRetryBlobRetriesTransient(t *testing.T) {
	var sleeps []time.Duration
	inner := &stubBlob{failures: 2, failErr: errFlaky}
	rb := NewRetryBlob(inner, fastRetry(&sleeps))
	if err := NewStore(rb).PutManifest(Manifest{Version: ManifestVersion}); err != nil {
		t.Fatalf("PutManifest after 2 transient failures: %v", err)
	}
	if inner.calls != 3 {
		t.Fatalf("inner calls = %d, want 3 (2 failures + success)", inner.calls)
	}
	if len(sleeps) != 2 {
		t.Fatalf("backoff sleeps = %d, want 2", len(sleeps))
	}
	// Jittered exponential backoff: each delay within [base/2, 2*base<<i].
	base := 10 * time.Millisecond
	for i, d := range sleeps {
		lo, hi := base/2, 3*base
		if i == 1 {
			lo, hi = base, 6*base
		}
		if d < lo || d > hi {
			t.Errorf("sleep %d = %v, want in [%v, %v]", i, d, lo, hi)
		}
	}
	if h := rb.StoreHealth(); h.State != StoreStateOK || h.Retries != 2 {
		t.Fatalf("health after recovery = %+v, want ok with 2 retries", h)
	}
}

func TestRetryBlobPermanentNotRetried(t *testing.T) {
	inner := &stubBlob{failures: 10, failErr: ErrBlobNotFound}
	rb := NewRetryBlob(inner, fastRetry(nil))
	if _, err := NewStore(rb).GetArtifact(Digest([]byte("x"))); !errors.Is(err, ErrArtifactNotFound) {
		t.Fatalf("err = %v, want ErrArtifactNotFound", err)
	}
	if inner.calls != 1 {
		t.Fatalf("inner calls = %d, want 1 (permanent errors are not retried)", inner.calls)
	}
	// A permanent error proves the backend answers: health stays ok.
	if h := rb.StoreHealth(); h.State != StoreStateOK {
		t.Fatalf("health = %+v, want ok", h)
	}
}

func TestRetryBlobBreakerTripAndRecover(t *testing.T) {
	cfg := fastRetry(nil)
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Hour // first: prove fail-fast while open
	inner := &stubBlob{failures: 1 << 30, failErr: errFlaky}
	rb := NewRetryBlob(inner, cfg)
	st := NewStore(rb)

	for i := 0; i < 2; i++ {
		if err := st.PutManifest(Manifest{}); !errors.Is(err, errFlaky) {
			t.Fatalf("op %d: err = %v, want flaky", i, err)
		}
	}
	h := rb.StoreHealth()
	if h.State != StoreStateOpen || h.Trips != 1 || h.ConsecutiveFailures != 2 {
		t.Fatalf("health after threshold = %+v, want open/1 trip/2 consec", h)
	}
	calls := inner.calls
	err := st.PutManifest(Manifest{})
	if !errors.Is(err, ErrStoreUnavailable) || !errors.Is(err, errFlaky) {
		t.Fatalf("open-breaker err = %v, want ErrStoreUnavailable wrapping last cause", err)
	}
	if inner.calls != calls {
		t.Fatal("open breaker must fail fast without touching the backend")
	}

	// Cooldown elapsed → exactly one probe; it heals the backend.
	rb.mu.Lock()
	rb.openUntil = time.Now().Add(-time.Millisecond)
	rb.mu.Unlock()
	inner.failures = 0 // backend healed
	if err := st.PutManifest(Manifest{}); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if h := rb.StoreHealth(); h.State != StoreStateOK || h.ConsecutiveFailures != 0 {
		t.Fatalf("health after successful probe = %+v, want ok", h)
	}
	if err := st.PutManifest(Manifest{}); err != nil {
		t.Fatalf("post-recovery op: %v", err)
	}
}

func TestRetryBlobFailedProbeReopens(t *testing.T) {
	cfg := fastRetry(nil)
	cfg.BreakerThreshold = 1
	cfg.BreakerCooldown = time.Hour
	inner := &stubBlob{failures: 1 << 30, failErr: errFlaky}
	rb := NewRetryBlob(inner, cfg)
	st := NewStore(rb)
	if err := st.PutManifest(Manifest{}); !errors.Is(err, errFlaky) {
		t.Fatalf("trip op: %v", err)
	}
	rb.mu.Lock()
	rb.openUntil = time.Now().Add(-time.Millisecond)
	rb.mu.Unlock()
	calls := inner.calls
	if err := st.PutManifest(Manifest{}); !errors.Is(err, errFlaky) {
		t.Fatalf("probe err = %v, want flaky", err)
	}
	if inner.calls != calls+1 {
		t.Fatalf("probe calls = %d, want exactly one attempt (no backoff loop)", inner.calls-calls)
	}
	if h := rb.StoreHealth(); h.State != StoreStateOpen {
		t.Fatalf("health after failed probe = %+v, want open again", h)
	}
}

func TestRetryBlobOverFSBlob(t *testing.T) {
	fs, err := OpenFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rb := NewRetryBlob(fs.Backend(), fastRetry(nil))
	st := NewStore(rb)
	data := []byte("artifact-bytes")
	dig, err := st.PutArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.GetArtifact(dig)
	if err != nil || string(got) != string(data) {
		t.Fatalf("round trip: %q, %v", got, err)
	}
	if _, err := st.GetArtifact(Digest([]byte("missing"))); !errors.Is(err, ErrArtifactNotFound) {
		t.Fatalf("missing artifact err = %v, want ErrArtifactNotFound (fast, no retries)", err)
	}
	if h := rb.StoreHealth(); h.State != StoreStateOK || h.Retries != 0 {
		t.Fatalf("health = %+v, want pristine ok", h)
	}
}

func TestRegistryStoreHealthDiscovery(t *testing.T) {
	r := New()
	if _, ok := r.StoreHealth(); ok {
		t.Fatal("registry without store must report no health")
	}
	fs, err := OpenFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r.UseStore(fs)
	if _, ok := r.StoreHealth(); ok {
		t.Fatal("bare filesystem store is not instrumented; want ok=false")
	}
	r2 := New()
	r2.UseStore(NewStore(NewRetryBlob(fs.Backend(), fastRetry(nil))))
	if h, ok := r2.StoreHealth(); !ok || h.State != StoreStateOK {
		t.Fatalf("instrumented store health = %+v, %v; want ok state", h, ok)
	}
}
