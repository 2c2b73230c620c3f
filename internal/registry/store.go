// The durable artifact plane: a Store persists every trained pipeline
// as a content-addressed artifact plus a manifest describing the
// registry's state (models, digests, default, registered scenarios), so a
// restarted explaind warm-starts serving the exact pipelines it was
// serving when it died instead of retraining from scratch.
package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"nfvxai/internal/core"
	"nfvxai/internal/wire"
)

// Blob key layout. Over an FSBlob each key is a path under the store
// directory, so the layout is also the on-disk one.
const (
	blobArtifactPrefix   = "artifacts/"
	blobManifestKey      = "manifest.json"
	blobExperimentPrefix = "experiments/"
)

// Store is the persistence plane of a registry, laid over any
// BlobBackend: artifacts at artifacts/<digest> (the digest is the hex
// SHA-256 of the bytes), the manifest — the small mutable index naming
// them — at manifest.json, and persisted experiment result matrices at
// experiments/<id>.json. It verifies digests on read and maps backend
// not-found onto the registry's sentinels, the same over every backend
// (the conformance suite enforces it). Every method makes at most one
// backend call, so retries, breaker state and fault injection live in
// the backend stack (RetryBlob, ChaosBlob), not here.
type Store struct {
	b BlobBackend
}

// NewStore lays the registry's store over a blob backend.
func NewStore(b BlobBackend) *Store { return &Store{b: b} }

// NewMemStore returns a Store backed by a fresh in-memory bucket — the
// shared store of an in-process cluster, and the in-memory counterpart
// to OpenFSStore.
func NewMemStore() *Store { return NewStore(NewMemBlob()) }

// Backend exposes the underlying blob backend (so several in-process
// registries can share one bucket, and the registry can find a RetryBlob
// to report its health).
func (s *Store) Backend() BlobBackend { return s.b }

// PutArtifact stores data and returns its content digest. Storing the
// same bytes twice is idempotent.
func (s *Store) PutArtifact(data []byte) (string, error) {
	digest := Digest(data)
	if err := s.b.Put(blobArtifactPrefix+digest, data); err != nil {
		return "", fmt.Errorf("registry: put artifact: %w", err)
	}
	return digest, nil
}

// GetArtifact returns the artifact bytes for a digest, verifying the
// content digest so silent corruption in the backend surfaces as
// ErrCorruptArtifact instead of a decode failure deeper in. A missing
// artifact (or an invalid digest) is ErrArtifactNotFound.
func (s *Store) GetArtifact(digest string) ([]byte, error) {
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

// DeleteArtifact removes an artifact the manifest no longer references
// (retrain GC). Deleting a missing artifact is a no-op.
func (s *Store) DeleteArtifact(digest string) error {
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

// PutManifest atomically replaces the manifest — a reader never observes
// a torn one. Atomicity is delegated to the backend's Put contract.
func (s *Store) PutManifest(m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("registry: put manifest: %w", err)
	}
	if err := s.b.Put(blobManifestKey, data); err != nil {
		return fmt.Errorf("registry: put manifest: %w", err)
	}
	return nil
}

// GetManifest loads the manifest; ok is false when none exists yet.
func (s *Store) GetManifest() (Manifest, bool, error) {
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

// PutExperiment persists one experiment result matrix (JSON) by id.
func (s *Store) PutExperiment(id string, data []byte) error {
	if !validExperimentID(id) {
		return fmt.Errorf("registry: put experiment: invalid id %q", id)
	}
	if err := s.b.Put(blobExperimentPrefix+id+".json", data); err != nil {
		return fmt.Errorf("registry: put experiment: %w", err)
	}
	return nil
}

// GetExperiment loads a persisted experiment result; a missing one (or
// an invalid id) is ErrArtifactNotFound.
func (s *Store) GetExperiment(id string) ([]byte, error) {
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

// ListExperiments returns the persisted experiment ids, sorted.
func (s *Store) ListExperiments() ([]string, error) {
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

// ManifestVersion is the manifest schema version this build reads and
// writes.
const ManifestVersion = 1

// Manifest is the registry's durable index: which artifacts exist, what
// spec each was trained from, which model is the default, and which
// scenario specs were registered at runtime.
type Manifest struct {
	Version int       `json:"version"`
	SavedAt time.Time `json:"saved_at"`
	Default string    `json:"default,omitempty"`
	// Models lists every persisted ready model.
	Models []ModelRecord `json:"models"`
	// Scenarios are the registered scenario specs (builtins included;
	// re-registering a builtin on warm start is a harmless no-op).
	Scenarios []core.ScenarioSpec `json:"scenarios,omitempty"`
}

// ModelRecord names one persisted model artifact.
type ModelRecord struct {
	Spec      Spec      `json:"spec"`
	Digest    string    `json:"digest"`
	CreatedAt time.Time `json:"created_at"`
	ReadyAt   time.Time `json:"ready_at"`
	Retrains  int       `json:"retrains,omitempty"`
}

// Typed store failures. The corruption tests assert these with errors.Is;
// decode-level causes (wire.ErrTruncated, ml.ErrUnknownModelKind,
// core.ErrPipelineVersion) stay reachable through wrapping.
var (
	// ErrManifestVersion reports a manifest written by an incompatible
	// schema version.
	ErrManifestVersion = errors.New("registry: unsupported manifest version")
	// ErrCorruptArtifact reports an artifact whose content does not match
	// its digest or whose structure fails to decode.
	ErrCorruptArtifact = errors.New("registry: corrupt artifact")
	// ErrArtifactNotFound reports a digest with no stored artifact.
	ErrArtifactNotFound = errors.New("registry: artifact not found")
	// ErrArtifactVersion reports an artifact envelope written by an
	// incompatible codec version.
	ErrArtifactVersion = errors.New("registry: unsupported artifact version")
	// ErrNoStore reports a persistence operation on a registry without an
	// attached store.
	ErrNoStore = errors.New("registry: no store attached")
)

// Digest returns the content address of artifact bytes (hex SHA-256).
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// artifactMagic and artifactCodecVersion frame the registry-level
// artifact envelope: spec JSON + pipeline blob.
const (
	artifactMagic        = "NFVA"
	artifactCodecVersion = 1
)

// EncodeArtifact serializes one (spec, trained pipeline) pair into a
// self-contained artifact: the spec travels with the model so an artifact
// can be imported into a fresh registry with no manifest at all.
func EncodeArtifact(sp Spec, p *core.Pipeline) ([]byte, error) {
	specJSON, err := json.Marshal(sp)
	if err != nil {
		return nil, fmt.Errorf("registry: encode artifact spec: %w", err)
	}
	blob, err := p.Save()
	if err != nil {
		return nil, fmt.Errorf("registry: encode artifact: %w", err)
	}
	var w wire.Writer
	w.String(artifactMagic)
	w.U16(artifactCodecVersion)
	w.BytesField(specJSON)
	w.BytesField(blob)
	return w.Bytes(), nil
}

// DecodeArtifact reconstructs the (spec, pipeline) pair from an
// EncodeArtifact blob. Truncation, bad structure and unknown embedded
// model kinds surface as ErrCorruptArtifact wrapping the typed cause.
func DecodeArtifact(data []byte) (Spec, *core.Pipeline, error) {
	r := wire.NewReader(data)
	magic := r.String()
	if err := r.Err(); err != nil {
		return Spec{}, nil, fmt.Errorf("%w: %w", ErrCorruptArtifact, err)
	}
	if magic != artifactMagic {
		return Spec{}, nil, fmt.Errorf("%w: bad magic %q", ErrCorruptArtifact, magic)
	}
	if v := r.U16(); r.Err() == nil && v != artifactCodecVersion {
		return Spec{}, nil, fmt.Errorf("%w: %d (want %d)", ErrArtifactVersion, v, artifactCodecVersion)
	}
	specJSON := r.BytesField()
	blob := r.BytesField()
	if err := r.Err(); err != nil {
		return Spec{}, nil, fmt.Errorf("%w: %w", ErrCorruptArtifact, err)
	}
	var sp Spec
	if err := json.Unmarshal(specJSON, &sp); err != nil {
		return Spec{}, nil, fmt.Errorf("%w: spec: %w", ErrCorruptArtifact, err)
	}
	p, err := core.LoadPipeline(blob)
	if err != nil {
		return Spec{}, nil, fmt.Errorf("%w: %w", ErrCorruptArtifact, err)
	}
	return sp, p, nil
}
