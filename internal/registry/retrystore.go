// Store fault tolerance: RetryStore decorates any Store with jittered
// exponential-backoff retries for transient failures and a circuit
// breaker that fails fast while the backend is down, half-opening with a
// single probe after a cooldown. Wrapped around the filesystem store
// (OpenFSStore) it lets manifest persistence, artifact GC and warm starts
// ride out transient I/O failures (full disk, flaky NFS, chaos
// injection) — persistence errors degrade health reporting, they never
// panic or wedge the registry.
package registry

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// ErrStoreUnavailable is returned (wrapping the last cause) when the
// circuit breaker is open: the backend failed repeatedly and calls fail
// fast until the cooldown elapses and a probe succeeds.
var ErrStoreUnavailable = errors.New("registry: store unavailable (circuit open)")

// Store health states reported by RetryStore.StoreHealth.
const (
	StoreStateOK       = "ok"
	StoreStateDegraded = "degraded"  // recent failures, still closed
	StoreStateOpen     = "open"      // breaker tripped, failing fast
	StoreStateHalfOpen = "half-open" // cooldown elapsed, probing
)

// StoreHealth is a point-in-time snapshot of a RetryStore's condition,
// surfaced through /healthz and /readyz.
type StoreHealth struct {
	State string `json:"state"`
	// ConsecutiveFailures counts back-to-back failed operations (retries
	// exhausted); the breaker opens at RetryConfig.BreakerThreshold.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// Retries counts individual retried attempts; Trips counts breaker
	// openings since start.
	Retries uint64 `json:"retries,omitempty"`
	Trips   uint64 `json:"trips,omitempty"`
	// LastError and LastFailure describe the most recent failure.
	LastError   string    `json:"last_error,omitempty"`
	LastFailure time.Time `json:"last_failure,omitempty"`
}

// HealthReporter is implemented by instrumented stores (RetryStore);
// Registry.StoreHealth discovers it to surface store health over HTTP.
type HealthReporter interface {
	StoreHealth() StoreHealth
}

// RetryConfig tunes a RetryStore. Zero values take the defaults.
type RetryConfig struct {
	// MaxAttempts is the total tries per operation (first + retries).
	MaxAttempts int // default 4
	// BaseDelay is the first backoff; each retry doubles it up to
	// MaxDelay, with ±50% jitter to decorrelate concurrent retriers.
	BaseDelay time.Duration // default 10ms
	MaxDelay  time.Duration // default 500ms
	// BreakerThreshold consecutive exhausted operations trip the breaker
	// open; BreakerCooldown later one probe operation half-opens it.
	BreakerThreshold int           // default 5
	BreakerCooldown  time.Duration // default 5s
	// Seed drives the jitter (deterministic tests); 0 means 1.
	Seed int64
	// Sleep replaces time.Sleep in tests; nil means real sleeping.
	Sleep func(time.Duration)
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseDelay <= 0 {
		c.BaseDelay = 10 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 500 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// Transient reports whether a store error is worth retrying. Typed
// registry errors are permanent: a missing or corrupt artifact, a version
// mismatch, or an already-open breaker will not heal by retrying —
// everything else (I/O errors, chaos injection) is assumed transient.
func Transient(err error) bool {
	switch {
	case err == nil,
		errors.Is(err, ErrArtifactNotFound),
		errors.Is(err, ErrCorruptArtifact),
		errors.Is(err, ErrManifestVersion),
		errors.Is(err, ErrArtifactVersion),
		errors.Is(err, ErrNoStore),
		errors.Is(err, ErrStoreUnavailable):
		return false
	}
	return true
}

// RetryStore decorates a Store with retries and a circuit breaker. All
// methods are safe for concurrent use; the internal mutex is never held
// across backend I/O or sleeps.
type RetryStore struct {
	inner Store
	cfg   RetryConfig

	mu        sync.Mutex
	rng       *rand.Rand
	consec    int       // consecutive exhausted operations
	openUntil time.Time // breaker open until (zero = closed)
	probing   bool      // one half-open probe in flight
	retries   uint64
	trips     uint64
	lastErr   error
	lastFail  time.Time
}

// NewRetryStore wraps inner with retry/backoff and a circuit breaker.
func NewRetryStore(inner Store, cfg RetryConfig) *RetryStore {
	cfg = cfg.withDefaults()
	return &RetryStore{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Inner returns the wrapped store (chaos tests reach through).
func (r *RetryStore) Inner() Store { return r.inner }

// admit decides whether an operation may run: closed breaker → yes;
// open within cooldown → fail fast; cooldown elapsed → exactly one
// caller becomes the half-open probe, the rest keep failing fast.
func (r *RetryStore) admit() (probe bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.openUntil.IsZero() {
		return false, nil
	}
	if time.Now().Before(r.openUntil) || r.probing {
		last := r.lastErr
		if last == nil {
			return false, ErrStoreUnavailable
		}
		return false, errors.Join(ErrStoreUnavailable, last)
	}
	r.probing = true
	return true, nil
}

// do runs one store operation through the retry loop and breaker.
func (r *RetryStore) do(fn func() error) error {
	probe, err := r.admit()
	if err != nil {
		return err
	}
	attempts := r.cfg.MaxAttempts
	if probe {
		attempts = 1 // a half-open probe gets one shot, no backoff
	}
	var last error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			r.backoff(i)
		}
		last = fn()
		if last == nil || !Transient(last) {
			// Success — or a permanent error, which still proves the
			// backend is reachable and answering.
			r.recordOK(probe)
			return last
		}
	}
	r.recordFailure(probe, last)
	return last
}

// backoff sleeps the jittered exponential delay for retry i (1-based).
func (r *RetryStore) backoff(i int) {
	d := r.cfg.BaseDelay << uint(i-1)
	if d > r.cfg.MaxDelay {
		d = r.cfg.MaxDelay
	}
	r.mu.Lock()
	r.retries++
	// ±50% jitter, drawn under the lock from the seeded stream.
	jittered := d/2 + time.Duration(r.rng.Int63n(int64(d)+1))
	r.mu.Unlock()
	r.cfg.Sleep(jittered)
}

func (r *RetryStore) recordOK(probe bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.consec = 0
	r.openUntil = time.Time{}
	if probe {
		r.probing = false
	}
}

func (r *RetryStore) recordFailure(probe bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.consec++
	r.lastErr = err
	r.lastFail = time.Now()
	if probe {
		// Failed probe: reopen for another cooldown.
		r.probing = false
		r.openUntil = time.Now().Add(r.cfg.BreakerCooldown)
		return
	}
	if r.consec >= r.cfg.BreakerThreshold && r.openUntil.IsZero() {
		r.trips++
		r.openUntil = time.Now().Add(r.cfg.BreakerCooldown)
	}
}

// StoreHealth implements HealthReporter.
func (r *RetryStore) StoreHealth() StoreHealth {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := StoreHealth{
		State:               StoreStateOK,
		ConsecutiveFailures: r.consec,
		Retries:             r.retries,
		Trips:               r.trips,
		LastFailure:         r.lastFail,
	}
	if r.lastErr != nil {
		h.LastError = r.lastErr.Error()
	}
	switch {
	case r.probing:
		h.State = StoreStateHalfOpen
	case !r.openUntil.IsZero() && time.Now().Before(r.openUntil):
		h.State = StoreStateOpen
	case !r.openUntil.IsZero():
		h.State = StoreStateHalfOpen // cooldown elapsed, next call probes
	case r.consec > 0:
		h.State = StoreStateDegraded
	}
	return h
}

// ─── Store interface, each operation through the retry loop ─────────────

func (r *RetryStore) PutArtifact(data []byte) (string, error) {
	var digest string
	err := r.do(func() error {
		var e error
		digest, e = r.inner.PutArtifact(data)
		return e
	})
	return digest, err
}

func (r *RetryStore) GetArtifact(digest string) ([]byte, error) {
	var data []byte
	err := r.do(func() error {
		var e error
		data, e = r.inner.GetArtifact(digest)
		return e
	})
	return data, err
}

func (r *RetryStore) DeleteArtifact(digest string) error {
	return r.do(func() error { return r.inner.DeleteArtifact(digest) })
}

func (r *RetryStore) PutManifest(m Manifest) error {
	return r.do(func() error { return r.inner.PutManifest(m) })
}

func (r *RetryStore) GetManifest() (Manifest, bool, error) {
	var (
		m  Manifest
		ok bool
	)
	err := r.do(func() error {
		var e error
		m, ok, e = r.inner.GetManifest()
		return e
	})
	return m, ok, err
}

func (r *RetryStore) PutExperiment(id string, data []byte) error {
	return r.do(func() error { return r.inner.PutExperiment(id, data) })
}

func (r *RetryStore) GetExperiment(id string) ([]byte, error) {
	var data []byte
	err := r.do(func() error {
		var e error
		data, e = r.inner.GetExperiment(id)
		return e
	})
	return data, err
}

func (r *RetryStore) ListExperiments() ([]string, error) {
	var ids []string
	err := r.do(func() error {
		var e error
		ids, e = r.inner.ListExperiments()
		return e
	})
	return ids, err
}

// StoreHealth reports the attached store's health when it is
// instrumented; ok is false for bare or missing stores.
func (r *Registry) StoreHealth() (StoreHealth, bool) {
	if hr, ok := r.StoreBackend().(HealthReporter); ok {
		return hr.StoreHealth(), true
	}
	return StoreHealth{}, false
}
