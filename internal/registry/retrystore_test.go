package registry

import (
	"errors"
	"testing"
	"time"
)

// stubStore fails the first `failures` operations with failErr, then
// delegates to a real in-memory behavior (PutArtifact only needs the
// digest; the rest return zero values).
type stubStore struct {
	failures int
	failErr  error
	calls    int
}

func (s *stubStore) op() error {
	s.calls++
	if s.calls <= s.failures {
		return s.failErr
	}
	return nil
}

func (s *stubStore) PutArtifact(data []byte) (string, error) {
	if err := s.op(); err != nil {
		return "", err
	}
	return Digest(data), nil
}
func (s *stubStore) GetArtifact(digest string) ([]byte, error) { return nil, s.op() }
func (s *stubStore) DeleteArtifact(digest string) error        { return s.op() }
func (s *stubStore) PutManifest(m Manifest) error              { return s.op() }
func (s *stubStore) GetManifest() (Manifest, bool, error)      { return Manifest{}, false, s.op() }
func (s *stubStore) PutExperiment(string, []byte) error        { return s.op() }
func (s *stubStore) GetExperiment(string) ([]byte, error)      { return nil, s.op() }
func (s *stubStore) ListExperiments() ([]string, error)        { return nil, s.op() }

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
	permanent := []error{
		nil, ErrArtifactNotFound, ErrCorruptArtifact,
		ErrManifestVersion, ErrArtifactVersion, ErrNoStore, ErrStoreUnavailable,
	}
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

func TestRetryStoreRetriesTransient(t *testing.T) {
	var sleeps []time.Duration
	inner := &stubStore{failures: 2, failErr: errFlaky}
	rs := NewRetryStore(inner, fastRetry(&sleeps))
	if err := rs.PutManifest(Manifest{Version: ManifestVersion}); err != nil {
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
	if h := rs.StoreHealth(); h.State != StoreStateOK || h.Retries != 2 {
		t.Fatalf("health after recovery = %+v, want ok with 2 retries", h)
	}
}

func TestRetryStorePermanentNotRetried(t *testing.T) {
	inner := &stubStore{failures: 10, failErr: ErrArtifactNotFound}
	rs := NewRetryStore(inner, fastRetry(nil))
	if _, err := rs.GetArtifact(Digest([]byte("x"))); !errors.Is(err, ErrArtifactNotFound) {
		t.Fatalf("err = %v, want ErrArtifactNotFound", err)
	}
	if inner.calls != 1 {
		t.Fatalf("inner calls = %d, want 1 (permanent errors are not retried)", inner.calls)
	}
	// A permanent error proves the backend answers: health stays ok.
	if h := rs.StoreHealth(); h.State != StoreStateOK {
		t.Fatalf("health = %+v, want ok", h)
	}
}

func TestRetryStoreBreakerTripAndRecover(t *testing.T) {
	cfg := fastRetry(nil)
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Hour // first: prove fail-fast while open
	inner := &stubStore{failures: 1 << 30, failErr: errFlaky}
	rs := NewRetryStore(inner, cfg)

	for i := 0; i < 2; i++ {
		if err := rs.PutManifest(Manifest{}); !errors.Is(err, errFlaky) {
			t.Fatalf("op %d: err = %v, want flaky", i, err)
		}
	}
	h := rs.StoreHealth()
	if h.State != StoreStateOpen || h.Trips != 1 || h.ConsecutiveFailures != 2 {
		t.Fatalf("health after threshold = %+v, want open/1 trip/2 consec", h)
	}
	calls := inner.calls
	err := rs.PutManifest(Manifest{})
	if !errors.Is(err, ErrStoreUnavailable) || !errors.Is(err, errFlaky) {
		t.Fatalf("open-breaker err = %v, want ErrStoreUnavailable wrapping last cause", err)
	}
	if inner.calls != calls {
		t.Fatal("open breaker must fail fast without touching the backend")
	}

	// Cooldown elapsed → exactly one probe; it heals the backend.
	rs.mu.Lock()
	rs.openUntil = time.Now().Add(-time.Millisecond)
	rs.mu.Unlock()
	inner.failures = 0 // backend healed
	if err := rs.PutManifest(Manifest{}); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if h := rs.StoreHealth(); h.State != StoreStateOK || h.ConsecutiveFailures != 0 {
		t.Fatalf("health after successful probe = %+v, want ok", h)
	}
	if err := rs.PutManifest(Manifest{}); err != nil {
		t.Fatalf("post-recovery op: %v", err)
	}
}

func TestRetryStoreFailedProbeReopens(t *testing.T) {
	cfg := fastRetry(nil)
	cfg.BreakerThreshold = 1
	cfg.BreakerCooldown = time.Hour
	inner := &stubStore{failures: 1 << 30, failErr: errFlaky}
	rs := NewRetryStore(inner, cfg)
	if err := rs.PutManifest(Manifest{}); !errors.Is(err, errFlaky) {
		t.Fatalf("trip op: %v", err)
	}
	rs.mu.Lock()
	rs.openUntil = time.Now().Add(-time.Millisecond)
	rs.mu.Unlock()
	calls := inner.calls
	if err := rs.PutManifest(Manifest{}); !errors.Is(err, errFlaky) {
		t.Fatalf("probe err = %v, want flaky", err)
	}
	if inner.calls != calls+1 {
		t.Fatalf("probe calls = %d, want exactly one attempt (no backoff loop)", inner.calls-calls)
	}
	if h := rs.StoreHealth(); h.State != StoreStateOpen {
		t.Fatalf("health after failed probe = %+v, want open again", h)
	}
}

func TestRetryStoreOverFSStore(t *testing.T) {
	fs, err := OpenFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rs := NewRetryStore(fs, fastRetry(nil))
	data := []byte("artifact-bytes")
	dig, err := rs.PutArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rs.GetArtifact(dig)
	if err != nil || string(got) != string(data) {
		t.Fatalf("round trip: %q, %v", got, err)
	}
	if _, err := rs.GetArtifact(Digest([]byte("missing"))); !errors.Is(err, ErrArtifactNotFound) {
		t.Fatalf("missing artifact err = %v, want ErrArtifactNotFound (fast, no retries)", err)
	}
	if h := rs.StoreHealth(); h.State != StoreStateOK || h.Retries != 0 {
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
	r2.UseStore(NewRetryStore(fs, fastRetry(nil)))
	if h, ok := r2.StoreHealth(); !ok || h.State != StoreStateOK {
		t.Fatalf("instrumented store health = %+v, %v; want ok state", h, ok)
	}
}
