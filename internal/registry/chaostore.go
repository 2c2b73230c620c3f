// Fault injection for the artifact plane: ChaosStore decorates any Store
// with seeded, deterministic failures — transient errors, added latency,
// and torn (silently lost) writes. It exists for the chaos test suite and
// CI smoke runs: wrap the filesystem store (OpenFSStore) in a ChaosStore,
// wrap that in a RetryStore, and assert the stack's invariants under 20%
// error rates. Torn writes model the observable outcome of a crash
// mid-write under FSBlob's temp-file+rename protocol: the file simply
// never appears.
package registry

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected is the transient failure ChaosStore injects; Transient
// classifies it retryable, like the real I/O errors it stands in for.
var ErrInjected = fmt.Errorf("registry: injected chaos failure")

// ChaosConfig tunes a ChaosStore. All probabilities are in [0, 1].
type ChaosConfig struct {
	// ErrRate is the probability any operation fails with ErrInjected
	// before reaching the backend.
	ErrRate float64
	// TornRate is the probability a write (PutArtifact, PutManifest,
	// PutExperiment) reports success without persisting anything.
	TornRate float64
	// Latency is added to every operation that passes injection.
	Latency time.Duration
	// Seed drives the injection stream; 0 means 1. The same seed and call
	// sequence injects the same faults.
	Seed int64
	// Sleep replaces time.Sleep in tests; nil means real sleeping.
	Sleep func(time.Duration)
}

// ChaosStore injects faults in front of a wrapped Store. Safe for
// concurrent use; the rng is guarded, and concurrency only affects which
// caller draws which fault, not the fault sequence itself.
type ChaosStore struct {
	inner Store
	cfg   ChaosConfig

	mu       sync.Mutex
	rng      *rand.Rand
	injected uint64
	torn     uint64
}

// NewChaosStore wraps inner with fault injection.
func NewChaosStore(inner Store, cfg ChaosConfig) *ChaosStore {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return &ChaosStore{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Injected returns how many operations failed by injection; Torn how
// many writes were silently dropped.
func (c *ChaosStore) Injected() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.injected
}

func (c *ChaosStore) Torn() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.torn
}

// inject draws the fault decision for one operation: error, torn write
// (writes only), or pass-through.
func (c *ChaosStore) inject(op string, write bool) (fail error, torn bool) {
	c.mu.Lock()
	if c.cfg.ErrRate > 0 && c.rng.Float64() < c.cfg.ErrRate {
		c.injected++
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrInjected, op), false
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

func (c *ChaosStore) PutArtifact(data []byte) (string, error) {
	fail, torn := c.inject("put artifact", true)
	if fail != nil {
		return "", fail
	}
	if torn {
		// Lost write: report the digest the caller expects, persist
		// nothing. A later GetArtifact sees ErrArtifactNotFound, exactly
		// like a crash between temp-write and rename.
		return Digest(data), nil
	}
	return c.inner.PutArtifact(data)
}

func (c *ChaosStore) GetArtifact(digest string) ([]byte, error) {
	if fail, _ := c.inject("get artifact", false); fail != nil {
		return nil, fail
	}
	return c.inner.GetArtifact(digest)
}

func (c *ChaosStore) DeleteArtifact(digest string) error {
	if fail, _ := c.inject("delete artifact", false); fail != nil {
		return fail
	}
	return c.inner.DeleteArtifact(digest)
}

func (c *ChaosStore) PutManifest(m Manifest) error {
	fail, torn := c.inject("put manifest", true)
	if fail != nil {
		return fail
	}
	if torn {
		return nil // lost write: the previous manifest stays current
	}
	return c.inner.PutManifest(m)
}

func (c *ChaosStore) GetManifest() (Manifest, bool, error) {
	if fail, _ := c.inject("get manifest", false); fail != nil {
		return Manifest{}, false, fail
	}
	return c.inner.GetManifest()
}

func (c *ChaosStore) PutExperiment(id string, data []byte) error {
	fail, torn := c.inject("put experiment", true)
	if fail != nil {
		return fail
	}
	if torn {
		return nil
	}
	return c.inner.PutExperiment(id, data)
}

func (c *ChaosStore) GetExperiment(id string) ([]byte, error) {
	if fail, _ := c.inject("get experiment", false); fail != nil {
		return nil, fail
	}
	return c.inner.GetExperiment(id)
}

func (c *ChaosStore) ListExperiments() ([]string, error) {
	if fail, _ := c.inject("list experiments", false); fail != nil {
		return nil, fail
	}
	return c.inner.ListExperiments()
}
