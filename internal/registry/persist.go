package registry

import (
	"fmt"
	"time"

	"nfvxai/internal/core"
)

// UseStore attaches a persistence backend. Every subsequent successful
// train (synchronous AddReady, background Create build, streaming Swap)
// writes its artifact and refreshes the manifest. A boot restores the
// previous process's state by running one SyncManifest round right
// after UseStore, on the still empty registry.
func (r *Registry) UseStore(st *Store) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store = st
	if r.digests == nil {
		r.digests = map[string]string{}
	}
}

// StoreBackend returns the attached store, or nil.
func (r *Registry) StoreBackend() *Store {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.store
}

// reportStoreErr routes asynchronous persistence failures to the
// OnStoreError hook. Persistence is deliberately non-fatal for serving:
// a full disk must not take down inference traffic.
func (r *Registry) reportStoreErr(err error) {
	if err == nil {
		return
	}
	r.mu.RLock()
	hook := r.OnStoreError
	r.mu.RUnlock()
	if hook != nil {
		hook(err)
	}
}

// persistModel encodes the named ready model's pipeline, stores the
// artifact and rewrites the manifest. It runs outside the registry lock
// (encoding a pipeline is not cheap) and serializes store writes through
// storeMu so concurrent retrains cannot interleave manifest versions.
func (r *Registry) persistModel(name string) error {
	r.mu.RLock()
	st := r.store
	var sp Spec
	var p *core.Pipeline
	if e, ok := r.models[name]; ok && e.status == StatusReady {
		sp, p = e.spec, e.pipeline
	}
	r.mu.RUnlock()
	if st == nil || p == nil {
		return nil
	}
	art, err := EncodeArtifact(sp, p)
	if err != nil {
		return fmt.Errorf("registry: persist %q: %w", name, err)
	}
	digest, err := st.PutArtifact(art)
	if err != nil {
		return fmt.Errorf("registry: persist %q: %w", name, err)
	}
	r.mu.Lock()
	if r.digests == nil {
		r.digests = map[string]string{}
	}
	old := r.digests[name]
	r.digests[name] = digest
	// A live model supersedes any orphaned manifest record of its name.
	delete(r.orphans, name)
	r.mu.Unlock()
	if err := r.persistManifest(); err != nil {
		return err
	}
	// GC the superseded artifact (retrains would otherwise grow the store
	// without bound) — but only after the manifest stopped referencing
	// it, and only if nothing else still does (content addressing lets
	// identical pipelines share a digest).
	if old != "" && old != digest {
		r.mu.RLock()
		referenced := false
		for _, d := range r.digests {
			if d == old {
				referenced = true
				break
			}
		}
		for _, rec := range r.orphans {
			if rec.Digest == old {
				referenced = true
				break
			}
		}
		r.mu.RUnlock()
		if !referenced {
			if err := st.DeleteArtifact(old); err != nil {
				return fmt.Errorf("registry: gc %q: %w", name, err)
			}
		}
	}
	return nil
}

// PersistManifest rewrites the manifest from the registry's current
// state. The serving layer calls it after registering a scenario at
// runtime so registered ScenarioSpecs survive restart; model persistence
// calls it internally.
func (r *Registry) PersistManifest() error { return r.persistManifest() }

func (r *Registry) persistManifest() error {
	// storeMu is held across BOTH the state snapshot and the write. If
	// the snapshot were taken outside it, two near-simultaneous persists
	// (a background build finishing while a retrain swaps) could write
	// their manifests in the opposite order they snapshotted, committing
	// the stale one last and dropping a just-trained model from disk.
	// Lock order is storeMu → mu.RLock; no caller holds mu when calling
	// persistManifest, so this cannot deadlock.
	r.storeMu.Lock()
	defer r.storeMu.Unlock()
	r.mu.RLock()
	st := r.store
	r.mu.RUnlock()
	if st == nil {
		return nil
	}
	// On a shared (cluster) store the manifest also carries records
	// written by other nodes. Read the previous manifest first — still
	// under storeMu, so local writers cannot interleave — and merge it
	// below so a rewrite from this node never evicts another node's
	// models. A missing, unreadable or incompatible previous manifest
	// degrades to the single-node behavior: write our own state only.
	prev, prevOK, prevErr := st.GetManifest()
	if prevErr != nil || prev.Version != ManifestVersion {
		prevOK = false
	}
	r.mu.RLock()
	m := Manifest{Version: ManifestVersion, SavedAt: time.Now(), Default: r.defaultKey}
	for name, e := range r.models {
		digest, ok := r.digests[name]
		if !ok || e.status != StatusReady {
			continue // never persisted (still training, failed, or no artifact)
		}
		m.Models = append(m.Models, ModelRecord{
			Spec:      e.spec,
			Digest:    digest,
			CreatedAt: e.createdAt,
			ReadyAt:   e.readyAt,
			Retrains:  e.retrains,
		})
	}
	// Carry forward records whose artifacts failed to restore this boot:
	// dropping them here would turn a transient read error into permanent
	// eviction of a model whose artifact is still on disk. Only a ready,
	// persisted entry of the same name supersedes its orphan — a
	// recreate attempt that is still training (or failed) must not evict
	// the last good artifact.
	for name, rec := range r.orphans {
		if e, ok := r.models[name]; ok && e.status == StatusReady {
			if _, persisted := r.digests[name]; persisted {
				continue
			}
		}
		m.Models = append(m.Models, rec)
	}
	scenarios := r.Scenarios
	r.mu.RUnlock()
	if scenarios != nil {
		m.Scenarios = scenarios.List()
	}
	if prevOK {
		mergeManifest(&m, prev)
	}
	return st.PutManifest(m)
}

// mergeManifest folds the previous (shared) manifest into the local
// snapshot m, last-writer-wins per model on ReadyAt. Names this node
// knows keep the local record unless the previous manifest's record is
// strictly newer (another node retrained the model after our snapshot);
// names this node has never persisted are carried through verbatim —
// they belong to other nodes. Scenario specs union by name with the
// local list winning; the default falls back to the previous manifest's
// when this node has none. Local ties win so a node's own just-written
// artifact is never displaced by an equal-aged record.
//
// One deliberate gap: a clock-skewed peer could stamp a record newer
// than a local retrain that just GC'd the digest that record names. The
// sync loop then reports ErrArtifactNotFound for it until the peer
// persists again; serving is unaffected (adoption is best-effort).
func mergeManifest(m *Manifest, prev Manifest) {
	local := make(map[string]int, len(m.Models))
	for i, rec := range m.Models {
		local[rec.Spec.Name] = i
	}
	for _, rec := range prev.Models {
		if i, ok := local[rec.Spec.Name]; ok {
			if rec.ReadyAt.After(m.Models[i].ReadyAt) {
				m.Models[i] = rec
			}
			continue
		}
		m.Models = append(m.Models, rec)
	}
	haveScenario := make(map[string]bool, len(m.Scenarios))
	for _, sp := range m.Scenarios {
		haveScenario[sp.Name] = true
	}
	for _, sp := range prev.Scenarios {
		if !haveScenario[sp.Name] {
			m.Scenarios = append(m.Scenarios, sp)
		}
	}
	if m.Default == "" {
		m.Default = prev.Default
	}
}

// RestoreError names one manifest entry that a SyncManifest round could
// not install: a model whose artifact is missing or corrupt, or a
// scenario spec that no longer validates.
type RestoreError struct {
	Name string
	Err  error
}

// ExportArtifact serializes the named ready model into a self-contained
// artifact — the bytes GET /v1/models/{name}/artifact serves. It encodes
// from the live pipeline, so it works with or without an attached store.
func (r *Registry) ExportArtifact(name string) ([]byte, error) {
	r.mu.RLock()
	e, ok := r.models[name]
	var sp Spec
	var p *core.Pipeline
	if ok {
		sp, p = e.spec, e.pipeline
	}
	status := StatusFailed
	if ok {
		status = e.status
	}
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("registry: %q: %w", name, ErrNotFound)
	}
	if status != StatusReady || p == nil {
		return nil, fmt.Errorf("registry: %q is %s: %w", name, status, ErrNotReady)
	}
	return EncodeArtifact(sp, p)
}

// ImportArtifact registers an exported artifact as a ready model. An
// empty overrideName keeps the name embedded in the artifact's spec. The
// imported model persists to the attached store like any other ready
// model. Returns the registered name.
func (r *Registry) ImportArtifact(data []byte, overrideName string, now time.Time) (string, error) {
	sp, p, err := DecodeArtifact(data)
	if err != nil {
		return "", err
	}
	if overrideName != "" {
		sp.Name = overrideName
	}
	return r.AddReady(sp, p, now)
}
