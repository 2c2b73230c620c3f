// Store fault tolerance: RetryBlob decorates any BlobBackend with
// jittered exponential-backoff retries for transient failures and a
// circuit breaker that fails fast while the backend is down, half-opening
// with a single probe after a cooldown. Under the registry's Store
// (NewStore(NewRetryBlob(fsBlob, cfg))) it lets manifest persistence,
// artifact GC and warm starts ride out transient I/O failures (full disk,
// flaky NFS, chaos injection) — persistence errors degrade health
// reporting, they never panic or wedge the registry.
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

// Store health states reported by RetryBlob.StoreHealth.
const (
	StoreStateOK       = "ok"
	StoreStateDegraded = "degraded"  // recent failures, still closed
	StoreStateOpen     = "open"      // breaker tripped, failing fast
	StoreStateHalfOpen = "half-open" // cooldown elapsed, probing
)

// StoreHealth is a point-in-time snapshot of a RetryBlob's condition,
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

// RetryConfig tunes a RetryBlob. Zero values take the defaults.
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

// Transient reports whether a backend error is worth retrying. A missing
// key or an already-open breaker will not heal by retrying — everything
// else (I/O errors, chaos injection) is assumed transient. The registry's
// own typed errors (corrupt artifact, version mismatch, …) are raised by
// Store above the backend, so they never reach the retry loop.
func Transient(err error) bool {
	return err != nil && !errors.Is(err, ErrBlobNotFound) && !errors.Is(err, ErrStoreUnavailable)
}

// RetryBlob decorates a BlobBackend with retries and a circuit breaker.
// All methods are safe for concurrent use; the internal mutex is never
// held across backend I/O or sleeps.
type RetryBlob struct {
	inner BlobBackend
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

// NewRetryBlob wraps inner with retry/backoff and a circuit breaker.
func NewRetryBlob(inner BlobBackend, cfg RetryConfig) *RetryBlob {
	cfg = cfg.withDefaults()
	return &RetryBlob{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// admit decides whether an operation may run: closed breaker → yes;
// open within cooldown → fail fast; cooldown elapsed → exactly one
// caller becomes the half-open probe, the rest keep failing fast.
func (r *RetryBlob) admit() (probe bool, err error) {
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

// do runs one backend operation through the retry loop and breaker.
func (r *RetryBlob) do(fn func() error) error {
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
func (r *RetryBlob) backoff(i int) {
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

func (r *RetryBlob) recordOK(probe bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.consec = 0
	r.openUntil = time.Time{}
	if probe {
		r.probing = false
	}
}

func (r *RetryBlob) recordFailure(probe bool, err error) {
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

// StoreHealth reports the breaker's state and the retry counters.
func (r *RetryBlob) StoreHealth() StoreHealth {
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

// ─── BlobBackend, each operation through the retry loop ─────────────────

// Put implements BlobBackend.
func (r *RetryBlob) Put(key string, data []byte) error {
	return r.do(func() error { return r.inner.Put(key, data) })
}

// Get implements BlobBackend.
func (r *RetryBlob) Get(key string) ([]byte, error) {
	var data []byte
	err := r.do(func() error {
		var e error
		data, e = r.inner.Get(key)
		return e
	})
	return data, err
}

// Delete implements BlobBackend.
func (r *RetryBlob) Delete(key string) error {
	return r.do(func() error { return r.inner.Delete(key) })
}

// List implements BlobBackend.
func (r *RetryBlob) List(prefix string) ([]string, error) {
	var keys []string
	err := r.do(func() error {
		var e error
		keys, e = r.inner.List(prefix)
		return e
	})
	return keys, err
}

// StoreHealth reports the health of the attached store when its backend
// is a RetryBlob; ok is false for bare or missing stores.
func (r *Registry) StoreHealth() (StoreHealth, bool) {
	if st := r.StoreBackend(); st != nil {
		if rb, ok := st.Backend().(*RetryBlob); ok {
			return rb.StoreHealth(), true
		}
	}
	return StoreHealth{}, false
}
