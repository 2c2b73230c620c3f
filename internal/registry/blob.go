package registry

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrBlobNotFound reports a blob key with no stored object. Store maps
// it onto the registry's artifact sentinels; adapters for real
// object stores should return it (wrapped) for their native not-found
// condition (e.g. S3 NoSuchKey, HTTP 404).
var ErrBlobNotFound = errors.New("registry: blob not found")

// BlobBackend is the minimal object-store surface the registry's Store
// is laid over: a flat keyspace of opaque blobs with list-by-prefix.
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
