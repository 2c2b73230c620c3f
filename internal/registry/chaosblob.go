// Fault injection for the artifact plane: ChaosBlob decorates any
// BlobBackend with seeded, deterministic failures — transient errors,
// added latency, and torn (silently lost) writes. It exists for the chaos
// test suite and CI smoke runs: stack FSBlob ← ChaosBlob ← RetryBlob ←
// Store ← Registry and assert the stack's invariants under 20% error
// rates. Torn writes model the observable outcome of a crash mid-write
// under FSBlob's temp-file+rename protocol: the file simply never
// appears.
package registry

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected is the transient failure ChaosBlob injects; Transient
// classifies it retryable, like the real I/O errors it stands in for.
var ErrInjected = fmt.Errorf("registry: injected chaos failure")

// ChaosConfig tunes a ChaosBlob. All probabilities are in [0, 1].
type ChaosConfig struct {
	// ErrRate is the probability any operation fails with ErrInjected
	// before reaching the backend.
	ErrRate float64
	// TornRate is the probability a write (Put) reports success without
	// persisting anything.
	TornRate float64
	// Latency is added to every operation that passes injection.
	Latency time.Duration
	// Seed drives the injection stream; 0 means 1. The same seed and call
	// sequence injects the same faults.
	Seed int64
	// Sleep replaces time.Sleep in tests; nil means real sleeping.
	Sleep func(time.Duration)
}

// ChaosBlob injects faults in front of a wrapped BlobBackend. Safe for
// concurrent use; the rng is guarded, and concurrency only affects which
// caller draws which fault, not the fault sequence itself.
type ChaosBlob struct {
	inner BlobBackend
	cfg   ChaosConfig

	mu       sync.Mutex
	rng      *rand.Rand
	injected uint64
	torn     uint64
}

// NewChaosBlob wraps inner with fault injection.
func NewChaosBlob(inner BlobBackend, cfg ChaosConfig) *ChaosBlob {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return &ChaosBlob{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// SetErrRate changes ErrRate from the next operation on: a test can boot
// a node over a healthy store, then start the outage.
func (c *ChaosBlob) SetErrRate(rate float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg.ErrRate = rate
}

// Injected returns how many operations failed by injection; Torn how
// many writes were silently dropped.
func (c *ChaosBlob) Injected() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.injected
}

func (c *ChaosBlob) Torn() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.torn
}

// inject draws the fault decision for one operation: error, torn write
// (writes only), or pass-through.
func (c *ChaosBlob) inject(op, key string, write bool) (fail error, torn bool) {
	c.mu.Lock()
	if c.cfg.ErrRate > 0 && c.rng.Float64() < c.cfg.ErrRate {
		c.injected++
		c.mu.Unlock()
		return fmt.Errorf("%w: %s %s", ErrInjected, op, key), false
	}
	if write && c.cfg.TornRate > 0 && c.rng.Float64() < c.cfg.TornRate {
		c.torn++
		c.mu.Unlock()
		torn = true
	} else {
		c.mu.Unlock()
	}
	if c.cfg.Latency > 0 {
		c.cfg.Sleep(c.cfg.Latency)
	}
	return nil, torn
}

// Put implements BlobBackend. A torn write reports success and persists
// nothing: a later Get misses, exactly like a crash between temp-write
// and rename, and a lost manifest write leaves the previous one current.
func (c *ChaosBlob) Put(key string, data []byte) error {
	fail, torn := c.inject("put", key, true)
	if fail != nil || torn {
		return fail
	}
	return c.inner.Put(key, data)
}

// Get implements BlobBackend.
func (c *ChaosBlob) Get(key string) ([]byte, error) {
	if fail, _ := c.inject("get", key, false); fail != nil {
		return nil, fail
	}
	return c.inner.Get(key)
}

// Delete implements BlobBackend.
func (c *ChaosBlob) Delete(key string) error {
	if fail, _ := c.inject("delete", key, false); fail != nil {
		return fail
	}
	return c.inner.Delete(key)
}

// List implements BlobBackend.
func (c *ChaosBlob) List(prefix string) ([]string, error) {
	if fail, _ := c.inject("list", prefix, false); fail != nil {
		return nil, fail
	}
	return c.inner.List(prefix)
}
