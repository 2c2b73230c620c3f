// Package registry is lockedcall golden testdata: no Store I/O, blocking
// sends or sleeps while the state RWMutex is held.
package registry

import (
	"sync"
	"time"
)

// Store mirrors the registry's persistence plane: a concrete type laid
// over a blob backend, matched by its name.
type Store struct {
	b map[string]string
}

func (s *Store) PutManifest(m string) error {
	s.b["manifest.json"] = m
	return nil
}

func (s *Store) GetArtifact(digest string) ([]byte, error) {
	return []byte(s.b["artifacts/"+digest]), nil
}

type Registry struct {
	mu      sync.RWMutex
	storeMu sync.Mutex
	store   *Store
	state   map[string]string
	events  chan string
}

// storeUnderLock writes the manifest while holding the state lock:
// flagged (the stale-manifest/stall class).
func (r *Registry) storeUnderLock(m string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state["m"] = m
	return r.store.PutManifest(m) // want "Store I/O (PutManifest) while r.mu is held"
}

// storeUnderRLock stalls writers just the same: flagged.
func (r *Registry) storeUnderRLock(digest string) ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.store.GetArtifact(digest) // want "Store I/O (GetArtifact) while r.mu is held"
}

// earlyExitStillHeld: the conditional Unlock+return leaves the
// fall-through path locked, so the store call is still flagged.
func (r *Registry) earlyExitStillHeld(m string) error {
	r.mu.Lock()
	if r.state == nil {
		r.mu.Unlock()
		return nil
	}
	err := r.store.PutManifest(m) // want "Store I/O (PutManifest) while r.mu is held"
	r.mu.Unlock()
	return err
}

// blockingSend under the state lock: flagged.
func (r *Registry) blockingSend(ev string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events <- ev // want "blocking channel send while r.mu is held"
}

// sleepUnderLock: flagged.
func (r *Registry) sleepUnderLock() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	time.Sleep(time.Millisecond) // want "time.Sleep while r.mu is held"
}

// snapshotThenWrite is the sanctioned pattern: snapshot under the lock,
// do the I/O after releasing it.
func (r *Registry) snapshotThenWrite(m string) error {
	r.mu.RLock()
	st := r.store
	snapshot := r.state["m"]
	r.mu.RUnlock()
	_ = snapshot
	return st.PutManifest(m)
}

// dedicatedIOMutex: a plain sync.Mutex that exists to serialize store
// writes is the design, not a violation.
func (r *Registry) dedicatedIOMutex(m string) error {
	r.storeMu.Lock()
	defer r.storeMu.Unlock()
	r.mu.RLock()
	snapshot := r.state["m"]
	r.mu.RUnlock()
	_ = snapshot
	return r.store.PutManifest(m)
}

// nonBlockingSend in a select with default never blocks: allowed.
func (r *Registry) nonBlockingSend(ev string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case r.events <- ev:
	default:
	}
}

// closureEscapes: goroutines launched under the lock run later under
// their own discipline; the analyzer does not follow them.
func (r *Registry) closureEscapes(m string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	go func() {
		_ = r.store.PutManifest(m)
	}()
}
