package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"
)

// The Store-conformance suite: the Store over every backend — the
// filesystem (OpenFSStore) and memory (MemStore), each bare and wrapped
// in a RetryBlob — must present the identical contract to the registry:
// content-addressed idempotent artifacts, digest verification on read,
// the sentinel-error taxonomy (ErrArtifactNotFound, ErrCorruptArtifact),
// no-op deletes of missing artifacts, an atomic never-torn manifest, and
// experiment id validation. The cluster plane leans on this hard: sync
// and warm-start code paths are backend-agnostic only because the
// contract is.

// storeFixture opens a fresh store of one backend family.
type storeFixture struct {
	name string
	open func(t *testing.T) *Store
}

// corruptArtifact flips a byte of a stored artifact behind the store's
// back, through its blob backend (over the filesystem backend, in the
// file on disk), so digest verification can be exercised.
func corruptArtifact(t *testing.T, st *Store, digest string) {
	t.Helper()
	b := st.Backend()
	data, err := b.Get(blobArtifactPrefix + digest)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if err := b.Put(blobArtifactPrefix+digest, data); err != nil {
		t.Fatal(err)
	}
}

// retryWrap lays a fixture's store over a RetryBlob around its backend,
// with no real sleeping.
func retryWrap(f storeFixture) storeFixture {
	return storeFixture{
		name: "Retry" + f.name,
		open: func(t *testing.T) *Store {
			return NewStore(NewRetryBlob(f.open(t).Backend(), noSleepRetry))
		},
	}
}

// noSleepRetry is the retry configuration of the wrapped fixtures.
var noSleepRetry = RetryConfig{Seed: 1, Sleep: func(time.Duration) {}}

func storeFixtures() []storeFixture {
	fs := storeFixture{
		name: "FSStore",
		open: func(t *testing.T) *Store {
			st, err := OpenFSStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return st
		},
	}
	mem := storeFixture{
		name: "MemStore",
		open: func(t *testing.T) *Store { return NewMemStore() },
	}
	return []storeFixture{fs, mem, retryWrap(fs), retryWrap(mem)}
}

// TestStoreConformance runs the shared contract against every backend.
func TestStoreConformance(t *testing.T) {
	for _, f := range storeFixtures() {
		t.Run(f.name, func(t *testing.T) {
			t.Run("ArtifactRoundTrip", func(t *testing.T) { conformArtifactRoundTrip(t, f) })
			t.Run("ArtifactSentinels", func(t *testing.T) { conformArtifactSentinels(t, f) })
			t.Run("ArtifactDelete", func(t *testing.T) { conformArtifactDelete(t, f) })
			t.Run("DigestVerification", func(t *testing.T) { conformDigestVerification(t, f) })
			t.Run("ManifestAtomicity", func(t *testing.T) { conformManifestAtomicity(t, f) })
			t.Run("Experiments", func(t *testing.T) { conformExperiments(t, f) })
		})
	}
}

func conformArtifactRoundTrip(t *testing.T, f storeFixture) {
	st := f.open(t)
	data := []byte("conformance artifact payload")
	d1, err := st.PutArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != Digest(data) {
		t.Fatalf("digest %s != content address %s", d1, Digest(data))
	}
	d2, err := st.PutArtifact(data)
	if err != nil || d2 != d1 {
		t.Fatalf("re-put not idempotent: %s vs %s (%v)", d1, d2, err)
	}
	got, err := st.GetArtifact(d1)
	if err != nil || string(got) != string(data) {
		t.Fatalf("get = %q, %v", got, err)
	}
}

func conformArtifactSentinels(t *testing.T, f storeFixture) {
	st := f.open(t)
	if _, err := st.GetArtifact(Digest([]byte("never stored"))); !errors.Is(err, ErrArtifactNotFound) {
		t.Errorf("missing artifact: %v, want ErrArtifactNotFound", err)
	}
	for _, bad := range []string{"", "zz", "../../etc/passwd", "ABCDEF"} {
		if _, err := st.GetArtifact(bad); !errors.Is(err, ErrArtifactNotFound) {
			t.Errorf("invalid digest %q: %v, want ErrArtifactNotFound", bad, err)
		}
	}
	if _, err := st.GetExperiment("no-such-experiment"); !errors.Is(err, ErrArtifactNotFound) {
		t.Errorf("missing experiment: %v, want ErrArtifactNotFound", err)
	}
	if _, err := st.GetExperiment("../escape"); !errors.Is(err, ErrArtifactNotFound) {
		t.Errorf("invalid experiment id: %v, want ErrArtifactNotFound", err)
	}
	if err := st.PutExperiment("../escape", []byte("{}")); err == nil {
		t.Error("invalid experiment id must not store")
	}
}

func conformArtifactDelete(t *testing.T, f storeFixture) {
	st := f.open(t)
	if err := st.DeleteArtifact(Digest([]byte("missing"))); err != nil {
		t.Fatalf("delete of missing artifact must be a no-op, got %v", err)
	}
	if err := st.DeleteArtifact("not-a-digest"); err != nil {
		t.Fatalf("delete of invalid digest must be a no-op, got %v", err)
	}
	d, err := st.PutArtifact([]byte("delete me"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteArtifact(d); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetArtifact(d); !errors.Is(err, ErrArtifactNotFound) {
		t.Fatalf("deleted artifact: %v, want ErrArtifactNotFound", err)
	}
}

func conformDigestVerification(t *testing.T, f storeFixture) {
	st := f.open(t)
	data := []byte("soon to be corrupted")
	d, err := st.PutArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	corruptArtifact(t, st, d)
	if _, err := st.GetArtifact(d); !errors.Is(err, ErrCorruptArtifact) {
		t.Fatalf("corrupted artifact: %v, want ErrCorruptArtifact", err)
	}
	// Re-putting the same bytes repairs the artifact: a put must not
	// trust that an object already stored under the digest is intact.
	if _, err := st.PutArtifact(data); err != nil {
		t.Fatal(err)
	}
	if got, err := st.GetArtifact(d); err != nil || string(got) != string(data) {
		t.Fatalf("re-put over a corrupt artifact: get = %q, %v", got, err)
	}
}

func conformManifestAtomicity(t *testing.T, f storeFixture) {
	st := f.open(t)
	if _, ok, err := st.GetManifest(); err != nil || ok {
		t.Fatalf("fresh store manifest: ok=%v err=%v, want absent", ok, err)
	}

	// Writers race readers; a reader must only ever observe a complete
	// manifest from some writer — never a torn or half-written one. The
	// SavedAt/Default pair is written consistently by each writer, so
	// tearing would show as a mismatch.
	stamp := func(i int) Manifest {
		return Manifest{
			Version: ManifestVersion,
			SavedAt: time.Unix(int64(i), 0).UTC(),
			Default: fmt.Sprintf("model-%d", i),
			Models: []ModelRecord{{
				Spec:    testSpec(fmt.Sprintf("model-%d", i)),
				Digest:  Digest([]byte(fmt.Sprintf("payload-%d", i))),
				ReadyAt: time.Unix(int64(i), 0).UTC(),
			}},
		}
	}
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 50; i++ {
				if err := st.PutManifest(stamp(w*50 + i)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m, ok, err := st.GetManifest()
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			if !ok || len(m.Models) != 1 {
				continue
			}
			want := fmt.Sprintf("model-%d", m.SavedAt.Unix())
			if m.Default != want || m.Models[0].Spec.Name != want {
				t.Errorf("torn manifest: saved_at=%v default=%q model=%q",
					m.SavedAt.Unix(), m.Default, m.Models[0].Spec.Name)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()

	m, ok, err := st.GetManifest()
	if err != nil || !ok {
		t.Fatalf("final manifest: ok=%v err=%v", ok, err)
	}
	if m.Version != ManifestVersion {
		t.Fatalf("version %d", m.Version)
	}
}

func conformExperiments(t *testing.T, f storeFixture) {
	st := f.open(t)
	ids, err := st.ListExperiments()
	if err != nil || len(ids) != 0 {
		t.Fatalf("fresh store experiments = %v, %v", ids, err)
	}
	if err := st.PutExperiment("job-2", []byte(`{"b":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.PutExperiment("job-1", []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	got, err := st.GetExperiment("job-1")
	if err != nil || string(got) != `{"a":1}` {
		t.Fatalf("get experiment = %q, %v", got, err)
	}
	// "a-b.json" sorts before "a.json" as a key, but "a" before "a-b"
	// as an id.
	for _, id := range []string{"a-b", "a"} {
		if err := st.PutExperiment(id, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	ids, err = st.ListExperiments()
	if want := []string{"a", "a-b", "job-1", "job-2"}; err != nil || !slices.Equal(ids, want) {
		t.Fatalf("list = %v, %v (want sorted ids %v)", ids, err, want)
	}
}

// TestBlobBackendConformance holds every BlobBackend to MemBlob's
// semantics: the contract Store and the explanation cache's tier 2 are
// written against, which the retry and fault-injection decorators must
// pass through unchanged. dir is the filesystem backend's root ("" for
// memory), where an interrupted Put's temp file can be planted.
func TestBlobBackendConformance(t *testing.T) {
	type opener func(t *testing.T) (b BlobBackend, dir string)
	fsBlob := func(t *testing.T) (BlobBackend, string) {
		dir := t.TempDir()
		st, err := OpenFSStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st.Backend(), dir
	}
	memBlob := func(t *testing.T) (BlobBackend, string) { return NewMemBlob(), "" }
	wrap := func(open opener, decorate func(BlobBackend) BlobBackend) opener {
		return func(t *testing.T) (BlobBackend, string) {
			b, dir := open(t)
			return decorate(b), dir
		}
	}
	retry := func(b BlobBackend) BlobBackend { return NewRetryBlob(b, noSleepRetry) }
	backends := []struct {
		name string
		open opener
	}{
		{"FSBlob", fsBlob},
		{"MemBlob", memBlob},
		{"RetryFSBlob", wrap(fsBlob, retry)},
		{"RetryMemBlob", wrap(memBlob, retry)},
		{"ChaosFSBlob", wrap(fsBlob, func(b BlobBackend) BlobBackend { return NewChaosBlob(b, ChaosConfig{}) })},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			b, dir := be.open(t)
			get := func(key, want string) {
				t.Helper()
				if got, err := b.Get(key); err != nil || string(got) != want {
					t.Fatalf("get %s = %q, %v; want %q", key, got, err, want)
				}
			}
			put := func(key, data string) {
				t.Helper()
				if err := b.Put(key, []byte(data)); err != nil {
					t.Fatalf("put %s: %v", key, err)
				}
			}

			put("manifest.json", "v1")
			get("manifest.json", "v1")
			put("manifest.json", "v2")
			get("manifest.json", "v2")

			if _, err := b.Get("experiments/missing.json"); !errors.Is(err, ErrBlobNotFound) {
				t.Fatalf("missing key: %v, want ErrBlobNotFound", err)
			}
			if err := b.Delete("experiments/missing.json"); err != nil {
				t.Fatalf("delete of a missing key must be a no-op, got %v", err)
			}

			digest := Digest([]byte("model"))
			leaf := "xcache/" + digest + "/0123456789abcdef0123456789abcdef01234567"
			put(leaf, "attribution")
			get(leaf, "attribution")

			// "p/a/x" is walked before "p/a-b" on disk, yet sorts after it.
			for _, k := range []string{"p/a/x", "p/a-b", "experiments/a.json", "experiments/a-b.json"} {
				put(k, k)
			}
			if dir != "" {
				tmp, err := os.CreateTemp(filepath.Join(dir, "experiments"), ".tmp-*")
				if err != nil {
					t.Fatal(err)
				}
				tmp.Close()
			}
			for prefix, want := range map[string][]string{
				"p/":                     {"p/a-b", "p/a/x"},
				"experiments/":           {"experiments/a-b.json", "experiments/a.json"},
				"experiments/a-":         {"experiments/a-b.json"},
				"xcache/" + digest + "/": {leaf},
				"absent/":                nil,
			} {
				if got, err := b.List(prefix); err != nil || !slices.Equal(got, want) {
					t.Errorf("list %q = %v, %v; want %v", prefix, got, err, want)
				}
			}
			all, err := b.List("")
			if err != nil || len(all) != 6 || !slices.IsSorted(all) {
				t.Errorf("list of every key = %v, %v; want 6 sorted keys", all, err)
			}

			if err := b.Delete(leaf); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Get(leaf); !errors.Is(err, ErrBlobNotFound) {
				t.Fatalf("deleted key: %v, want ErrBlobNotFound", err)
			}
		})
	}
}
