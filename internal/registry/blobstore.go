package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrBlobNotFound reports a blob key with no stored object. BlobStore
// maps it onto the registry's artifact sentinels; adapters for real
// object stores should return it (wrapped) for their native not-found
// condition (e.g. S3 NoSuchKey, HTTP 404).
var ErrBlobNotFound = errors.New("registry: blob not found")

// BlobBackend is the minimal object-store surface BlobStore builds a
// registry Store on: a flat keyspace of opaque blobs with list-by-prefix.
// It is deliberately shaped like S3/GCS/MinIO — Put maps to PutObject,
// Get to GetObject, Delete to DeleteObject, List to ListObjectsV2 — so a
// cloud adapter satisfies it with one thin type and the whole cluster
// plane (shared manifests, artifact sync) works against a real bucket
// unchanged.
type BlobBackend interface {
	// Put stores data under key, replacing any existing object
	// atomically: a concurrent Get sees either the old or the new bytes,
	// never a mix.
	Put(key string, data []byte) error
	// Get returns the object's bytes, or ErrBlobNotFound.
	Get(key string) ([]byte, error)
	// Delete removes an object; deleting a missing key is a no-op.
	Delete(key string) error
	// List returns the keys under prefix, sorted.
	List(prefix string) ([]string, error)
}

// MemBlob is an in-memory BlobBackend: the shared bucket of an
// in-process cluster and the reference implementation the conformance
// suite checks real adapters against. Safe for concurrent use across
// goroutines — which is how a multi-node test shares one "bucket".
type MemBlob struct {
	mu   sync.RWMutex
	data map[string][]byte
}

// NewMemBlob returns an empty in-memory bucket.
func NewMemBlob() *MemBlob {
	return &MemBlob{data: map[string][]byte{}}
}

// Put implements BlobBackend.
func (b *MemBlob) Put(key string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	b.mu.Lock()
	b.data[key] = cp
	b.mu.Unlock()
	return nil
}

// Get implements BlobBackend.
func (b *MemBlob) Get(key string) ([]byte, error) {
	b.mu.RLock()
	data, ok := b.data[key]
	b.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrBlobNotFound, key)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// Delete implements BlobBackend.
func (b *MemBlob) Delete(key string) error {
	b.mu.Lock()
	delete(b.data, key)
	b.mu.Unlock()
	return nil
}

// List implements BlobBackend.
func (b *MemBlob) List(prefix string) ([]string, error) {
	b.mu.RLock()
	var keys []string
	for k := range b.data {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	b.mu.RUnlock()
	sort.Strings(keys)
	return keys, nil
}

// Len returns the number of stored objects.
func (b *MemBlob) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.data)
}

// Blob key layout. Over an FSBlob each key is a path under the store
// directory, so the layout is also the on-disk one.
const (
	blobArtifactPrefix   = "artifacts/"
	blobManifestKey      = "manifest.json"
	blobExperimentPrefix = "experiments/"
)

// BlobStore adapts any BlobBackend into a registry Store: artifacts at
// artifacts/<digest>, the manifest at manifest.json, experiments at
// experiments/<id>.json. It verifies digests on read and maps backend
// not-found onto the registry's sentinels, the same over every backend
// (the conformance suite enforces it).
type BlobStore struct {
	b BlobBackend
}

// NewBlobStore wraps a blob backend as a registry Store.
func NewBlobStore(b BlobBackend) *BlobStore { return &BlobStore{b: b} }

// NewMemStore returns a Store backed by a fresh in-memory bucket — the
// shared store of an in-process cluster, and the in-memory counterpart
// to OpenFSStore.
func NewMemStore() *BlobStore { return NewBlobStore(NewMemBlob()) }

// Backend exposes the underlying blob backend (so several in-process
// registries can share one bucket).
func (s *BlobStore) Backend() BlobBackend { return s.b }

// PutArtifact implements Store.
func (s *BlobStore) PutArtifact(data []byte) (string, error) {
	digest := Digest(data)
	if err := s.b.Put(blobArtifactPrefix+digest, data); err != nil {
		return "", fmt.Errorf("registry: put artifact: %w", err)
	}
	return digest, nil
}

// GetArtifact implements Store, verifying the content digest so silent
// corruption in the backend surfaces as ErrCorruptArtifact instead of a
// decode failure deeper in.
func (s *BlobStore) GetArtifact(digest string) ([]byte, error) {
	if !validDigest(digest) {
		return nil, fmt.Errorf("%w: invalid digest %q", ErrArtifactNotFound, digest)
	}
	data, err := s.b.Get(blobArtifactPrefix + digest)
	if err != nil {
		if errors.Is(err, ErrBlobNotFound) {
			return nil, fmt.Errorf("%w: %s", ErrArtifactNotFound, digest)
		}
		return nil, fmt.Errorf("registry: get artifact: %w", err)
	}
	if got := Digest(data); got != digest {
		return nil, fmt.Errorf("%w: digest %s, content hashes to %s", ErrCorruptArtifact, digest, got)
	}
	return data, nil
}

// DeleteArtifact implements Store.
func (s *BlobStore) DeleteArtifact(digest string) error {
	if !validDigest(digest) {
		return nil
	}
	if err := s.b.Delete(blobArtifactPrefix + digest); err != nil {
		return fmt.Errorf("registry: delete artifact: %w", err)
	}
	return nil
}

// validDigest accepts hex SHA-256 strings only (also keeps digests safe
// as file names).
func validDigest(d string) bool {
	if len(d) != 64 {
		return false
	}
	for _, c := range d {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// PutManifest implements Store. Atomicity is delegated to the backend's
// Put contract.
func (s *BlobStore) PutManifest(m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("registry: put manifest: %w", err)
	}
	if err := s.b.Put(blobManifestKey, data); err != nil {
		return fmt.Errorf("registry: put manifest: %w", err)
	}
	return nil
}

// GetManifest implements Store.
func (s *BlobStore) GetManifest() (Manifest, bool, error) {
	data, err := s.b.Get(blobManifestKey)
	if err != nil {
		if errors.Is(err, ErrBlobNotFound) {
			return Manifest{}, false, nil
		}
		return Manifest{}, false, fmt.Errorf("registry: get manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, false, fmt.Errorf("%w: manifest: %w", ErrCorruptArtifact, err)
	}
	return m, true, nil
}

// validExperimentID keeps experiment ids usable as file names.
func validExperimentID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for _, c := range id {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return !strings.HasPrefix(id, ".")
}

// PutExperiment implements Store.
func (s *BlobStore) PutExperiment(id string, data []byte) error {
	if !validExperimentID(id) {
		return fmt.Errorf("registry: put experiment: invalid id %q", id)
	}
	if err := s.b.Put(blobExperimentPrefix+id+".json", data); err != nil {
		return fmt.Errorf("registry: put experiment: %w", err)
	}
	return nil
}

// GetExperiment implements Store.
func (s *BlobStore) GetExperiment(id string) ([]byte, error) {
	if !validExperimentID(id) {
		return nil, fmt.Errorf("%w: invalid experiment id %q", ErrArtifactNotFound, id)
	}
	data, err := s.b.Get(blobExperimentPrefix + id + ".json")
	if err != nil {
		if errors.Is(err, ErrBlobNotFound) {
			return nil, fmt.Errorf("%w: experiment %s", ErrArtifactNotFound, id)
		}
		return nil, fmt.Errorf("registry: get experiment: %w", err)
	}
	return data, nil
}

// ListExperiments implements Store.
func (s *BlobStore) ListExperiments() ([]string, error) {
	keys, err := s.b.List(blobExperimentPrefix)
	if err != nil {
		return nil, fmt.Errorf("registry: list experiments: %w", err)
	}
	ids := make([]string, 0, len(keys))
	for _, k := range keys {
		name := strings.TrimPrefix(k, blobExperimentPrefix)
		if strings.HasSuffix(name, ".json") && !strings.Contains(name, "/") {
			ids = append(ids, strings.TrimSuffix(name, ".json"))
		}
	}
	// Key order is not id order: "a-b.json" sorts before "a.json".
	sort.Strings(ids)
	return ids, nil
}
