package registry

import (
	"errors"
	"fmt"
	"time"

	"nfvxai/internal/core"
)

// SyncReport summarizes one SyncManifest reconcile round against the
// shared store.
type SyncReport struct {
	// Adopted are model names newly loaded from the shared manifest
	// (trained or imported on another node).
	Adopted []string
	// Swapped are local models hot-swapped to a newer remote artifact
	// (another node retrained them, e.g. on drift).
	Swapped []string
	// Skipped counts records already current locally, or locally
	// in-flight (a training build wins over the shared record until it
	// resolves).
	Skipped int
	// Scenarios counts newly registered scenario specs.
	Scenarios int
	// Default is the default name adopted from the manifest ("" when the
	// local default was already set or the manifest names an unknown
	// model).
	Default string
	// Errors lists records that failed to adopt (missing or corrupt
	// artifacts); the rest of the round proceeds.
	Errors []RestoreError
}

// adoptAction is the per-record reconcile decision.
type adoptAction int

const (
	adoptSkip adoptAction = iota // local state is current or in-flight
	adoptNew                     // no usable local entry: restore from artifact
	adoptSwap                    // remote record is newer: hot-swap pipeline
)

// SyncManifest reconciles the local registry against the shared store's
// manifest — the pull half of cluster replication. For each record it
// adopts models this node has never seen, hot-swaps models another node
// retrained (strictly newer ReadyAt), and leaves local in-flight or
// up-to-date state alone. It never writes to the store: adoption is
// read-only replication, so two nodes syncing concurrently cannot fight
// over the manifest. Scenario specs are registered first (model specs
// reference them); the manifest default is adopted only when this node
// has none yet.
// A boot is the first round, on an empty registry (serve.Open). A
// record whose artifact fails to load lands in Errors and is carried into
// later manifest writes until a ready model of its name is persisted, so
// a transient read error never evicts a model whose artifact is intact.
func (r *Registry) SyncManifest(now time.Time) (SyncReport, error) {
	var rep SyncReport
	st := r.StoreBackend()
	if st == nil {
		return rep, ErrNoStore
	}
	m, ok, err := st.GetManifest()
	if err != nil {
		return rep, err
	}
	if !ok {
		return rep, nil // fresh store: nothing to adopt
	}
	if m.Version != ManifestVersion {
		return rep, fmt.Errorf("%w: %d (want %d)", ErrManifestVersion, m.Version, ManifestVersion)
	}
	startDefault := r.DefaultName()
	for _, sp := range m.Scenarios {
		if _, err := r.Scenarios.Register(sp); err != nil {
			if errors.Is(err, core.ErrScenarioExists) {
				continue
			}
			rep.Errors = append(rep.Errors, RestoreError{Name: "scenario/" + sp.Name, Err: err})
			continue
		}
		rep.Scenarios++
	}
	for _, rec := range m.Models {
		action, err := r.adoptRecord(st, rec)
		switch {
		case err != nil:
			rep.Errors = append(rep.Errors, RestoreError{Name: rec.Spec.Name, Err: err})
			r.mu.Lock()
			e, live := r.models[rec.Spec.Name]
			_, persisted := r.digests[rec.Spec.Name]
			if !(live && e.status == StatusReady && persisted) {
				if r.orphans == nil {
					r.orphans = map[string]ModelRecord{}
				}
				r.orphans[rec.Spec.Name] = rec
			}
			r.mu.Unlock()
		case action == adoptNew:
			rep.Adopted = append(rep.Adopted, rec.Spec.Name)
		case action == adoptSwap:
			rep.Swapped = append(rep.Swapped, rec.Spec.Name)
		default:
			rep.Skipped++
		}
	}
	// Adopt the fleet default only when this node had none at round
	// start: an operator's explicit local SetDefault is not overridden by
	// the shared manifest. (adoptRecord may already have defaulted to the
	// first adopted model; the manifest's choice wins over that.)
	if startDefault == "" {
		r.mu.Lock()
		if m.Default != "" {
			if _, ok := r.models[m.Default]; ok {
				r.defaultKey = m.Default
			}
		}
		rep.Default = r.defaultKey
		r.mu.Unlock()
	}
	return rep, nil
}

// decideAdoptLocked classifies one shared-manifest record against local
// state. Caller holds r.mu (read or write).
func (r *Registry) decideAdoptLocked(rec ModelRecord) adoptAction {
	name := rec.Spec.Name
	e, ok := r.models[name]
	if !ok {
		return adoptNew
	}
	switch e.status {
	case StatusTraining:
		// A local build is in flight; when it finishes it persists and
		// the manifests converge. Adopting under it would race the swap.
		return adoptSkip
	case StatusFailed:
		// A good remote artifact beats a local failure.
		return adoptNew
	default: // StatusReady
		if r.digests[name] == rec.Digest {
			return adoptSkip // already serving these exact bytes
		}
		if rec.ReadyAt.After(e.readyAt) {
			return adoptSwap // remote retrain is strictly newer
		}
		return adoptSkip // local is as new or newer; our persist wins
	}
}

// adoptRecord applies one record: decide under the read lock, fetch and
// decode the artifact outside any lock (store reads are slow), then
// re-check and install under the write lock — the decision can change
// while the artifact is in flight (a local build finishing, another
// sync racing).
func (r *Registry) adoptRecord(st *Store, rec ModelRecord) (adoptAction, error) {
	name := rec.Spec.Name
	r.mu.RLock()
	action := r.decideAdoptLocked(rec)
	r.mu.RUnlock()
	if action == adoptSkip {
		return adoptSkip, nil
	}

	data, err := st.GetArtifact(rec.Digest)
	if err != nil {
		return action, err
	}
	sp, p, err := DecodeArtifact(data)
	if err != nil {
		return action, err
	}
	if sp.Name != name {
		return action, fmt.Errorf("%w: artifact spec name %q != manifest record %q", ErrCorruptArtifact, sp.Name, name)
	}
	if err := ValidateName(sp.Name); err != nil {
		return action, fmt.Errorf("%w: %w", ErrCorruptArtifact, err)
	}

	r.mu.Lock()
	action = r.decideAdoptLocked(rec)
	if action == adoptSkip {
		r.mu.Unlock()
		return adoptSkip, nil
	}
	// An adoptSwap replaces a ready pipeline whose artifact digest is now
	// unreachable through this registry; capture it so its result-cache
	// entries can be released once the lock is down.
	var old *core.Pipeline
	if prev, ok := r.models[name]; ok {
		old = prev.pipeline
	}
	// Install the remote state verbatim — spec, pipeline, lifecycle
	// timestamps and retrain count mirror the owning node, so every
	// replica reports the same /v1/models metadata. No store write
	// happens here or after: the artifact and record came FROM the store.
	r.attachCacheLocked(p)
	r.models[name] = &entry{
		spec:      sp,
		status:    StatusReady,
		createdAt: rec.CreatedAt,
		readyAt:   rec.ReadyAt,
		retrains:  rec.Retrains,
		pipeline:  p,
	}
	if r.digests == nil {
		r.digests = map[string]string{}
	}
	r.digests[name] = rec.Digest
	delete(r.orphans, name)
	if r.defaultKey == "" {
		r.defaultKey = name
	}
	c := r.xcache
	r.mu.Unlock()
	r.dropCacheEntries(old, c)
	return action, nil
}

// ArtifactDigest returns the persisted artifact digest for a model name
// ("" when the model was never persisted or adopted).
func (r *Registry) ArtifactDigest(name string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.digests[name]
}
