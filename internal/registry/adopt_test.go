package registry

import (
	"errors"
	"testing"
	"time"

	"nfvxai/internal/core"
)

// Shared-store pair: the cluster-replication unit tests run two
// registries over one in-memory bucket, the same shape as two explaind
// nodes sharing an object store.

func newSharedPair(t *testing.T) (*Registry, *Registry, *Store) {
	t.Helper()
	st := NewMemStore()
	mk := func() *Registry {
		r := New()
		r.OnStoreError = func(err error) { t.Errorf("store error: %v", err) }
		r.UseStore(st)
		return r
	}
	return mk(), mk(), st
}

func TestSyncManifestAdoptsRemoteModel(t *testing.T) {
	r1, r2, _ := newSharedPair(t)
	p := storeTestPipeline(t, core.ModelTree, 1)
	name, err := r1.AddReady(testSpec("web/cart/util"), p, time.Now())
	if err != nil {
		t.Fatal(err)
	}

	rep, err := r2.SyncManifest(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Adopted) != 1 || rep.Adopted[0] != name {
		t.Fatalf("adopted = %+v", rep)
	}
	if rep.Default != name {
		t.Fatalf("default = %q, want %q adopted", rep.Default, name)
	}
	if _, err := r2.Lookup(name); err != nil {
		t.Fatalf("adopted model not servable: %v", err)
	}
	if d1, d2 := r1.ArtifactDigest(name), r2.ArtifactDigest(name); d1 == "" || d1 != d2 {
		t.Fatalf("digests diverge: %q vs %q", d1, d2)
	}
	e1, _ := r1.Get(name)
	e2, _ := r2.Get(name)
	if !e1.ReadyAt.Equal(e2.ReadyAt) || e1.Retrains != e2.Retrains {
		t.Fatalf("lifecycle metadata diverges: %+v vs %+v", e1, e2)
	}

	// A second round is a no-op: the record is current.
	rep2, err := r2.SyncManifest(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Adopted) != 0 || len(rep2.Swapped) != 0 || rep2.Skipped != 1 {
		t.Fatalf("second round = %+v, want skip", rep2)
	}
}

func TestSyncManifestSwapsNewerRemoteRetrain(t *testing.T) {
	r1, r2, _ := newSharedPair(t)
	name, err := r1.AddReady(testSpec("web/cart/util"), storeTestPipeline(t, core.ModelTree, 1), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.SyncManifest(time.Now()); err != nil {
		t.Fatal(err)
	}

	// Node 1 retrains (drift hot-swap) with different bytes and a
	// strictly later ReadyAt.
	if _, err := r1.Swap(name, storeTestPipeline(t, core.ModelTree, 99), time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}

	rep, err := r2.SyncManifest(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Swapped) != 1 || rep.Swapped[0] != name {
		t.Fatalf("swap round = %+v", rep)
	}
	if d1, d2 := r1.ArtifactDigest(name), r2.ArtifactDigest(name); d1 != d2 {
		t.Fatalf("digests diverge after swap: %q vs %q", d1, d2)
	}
	e2, _ := r2.Get(name)
	if e2.Retrains != 1 {
		t.Fatalf("retrain count not mirrored: %+v", e2)
	}
}

func TestSyncManifestSkipsLocalTraining(t *testing.T) {
	r1, r2, _ := newSharedPair(t)
	name, err := r1.AddReady(testSpec("web/cart/util"), storeTestPipeline(t, core.ModelTree, 1), time.Now())
	if err != nil {
		t.Fatal(err)
	}

	// r2 has the same name mid-build: the local in-flight build wins
	// until it resolves.
	release := make(chan struct{})
	r2.Builder = func(Spec) (*core.Pipeline, error) {
		<-release
		return storeTestPipeline(t, core.ModelTree, 2), nil
	}
	if _, err := r2.Create(testSpec(name)); err != nil {
		t.Fatal(err)
	}
	built, err := r2.Built(name)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := r2.SyncManifest(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Adopted) != 0 || len(rep.Swapped) != 0 || rep.Skipped != 1 {
		t.Fatalf("training round = %+v, want skip", rep)
	}
	close(release)
	<-built
}

func TestSyncManifestMissingArtifactIsPerRecord(t *testing.T) {
	r1, r2, st := newSharedPair(t)
	good, err := r1.AddReady(testSpec("web/cart/good"), storeTestPipeline(t, core.ModelTree, 1), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	bad, err := r1.AddReady(testSpec("web/cart/bad"), storeTestPipeline(t, core.ModelTree, 2), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the clock-skew GC gap: the manifest names an artifact the
	// store no longer holds.
	if err := st.DeleteArtifact(r1.ArtifactDigest(bad)); err != nil {
		t.Fatal(err)
	}

	rep, err := r2.SyncManifest(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Adopted) != 1 || rep.Adopted[0] != good {
		t.Fatalf("adopted = %+v", rep)
	}
	if len(rep.Errors) != 1 || rep.Errors[0].Name != bad || !errors.Is(rep.Errors[0].Err, ErrArtifactNotFound) {
		t.Fatalf("errors = %+v", rep.Errors)
	}
}

func TestSyncManifestNoStoreAndFreshStore(t *testing.T) {
	r := New()
	if _, err := r.SyncManifest(time.Now()); !errors.Is(err, ErrNoStore) {
		t.Fatalf("no store: %v", err)
	}
	r.UseStore(NewMemStore())
	rep, err := r.SyncManifest(time.Now())
	if err != nil || len(rep.Adopted) != 0 {
		t.Fatalf("fresh store: %+v, %v", rep, err)
	}
}

// TestPersistManifestMergesFleetRecords: two nodes persisting disjoint
// models over one store must not evict each other's records — the bug
// class the LWW merge exists to prevent.
func TestPersistManifestMergesFleetRecords(t *testing.T) {
	r1, r2, st := newSharedPair(t)
	if _, err := r1.AddReady(testSpec("web/cart/a"), storeTestPipeline(t, core.ModelTree, 1), time.Now()); err != nil {
		t.Fatal(err)
	}
	// r2 persists a different model WITHOUT having synced r1's: its
	// manifest rewrite must carry r1's record forward.
	if _, err := r2.AddReady(testSpec("web/cart/b"), storeTestPipeline(t, core.ModelTree, 2), time.Now()); err != nil {
		t.Fatal(err)
	}

	m, ok, err := st.GetManifest()
	if err != nil || !ok {
		t.Fatalf("manifest: ok=%v err=%v", ok, err)
	}
	names := map[string]bool{}
	for _, rec := range m.Models {
		names[rec.Spec.Name] = true
	}
	if !names["web/cart/a"] || !names["web/cart/b"] || len(m.Models) != 2 {
		t.Fatalf("merged manifest models = %+v", m.Models)
	}

	// And both nodes converge by syncing.
	if _, err := r1.SyncManifest(time.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.SyncManifest(time.Now()); err != nil {
		t.Fatal(err)
	}
	if r1.Len() != 2 || r2.Len() != 2 {
		t.Fatalf("fleet did not converge: %d vs %d models", r1.Len(), r2.Len())
	}
}

// TestPersistManifestLWWKeepsNewerRecord: a stale local persist must not
// roll back a strictly newer record another node wrote.
func TestPersistManifestLWWKeepsNewerRecord(t *testing.T) {
	r1, _, st := newSharedPair(t)
	name, err := r1.AddReady(testSpec("web/cart/util"), storeTestPipeline(t, core.ModelTree, 1), time.Now())
	if err != nil {
		t.Fatal(err)
	}

	// Another "node" writes a strictly newer record for the same name
	// directly into the shared manifest.
	art, err := EncodeArtifact(testSpec(name), storeTestPipeline(t, core.ModelTree, 7))
	if err != nil {
		t.Fatal(err)
	}
	newDigest, err := st.PutArtifact(art)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := st.GetManifest()
	if err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(time.Minute)
	for i := range m.Models {
		if m.Models[i].Spec.Name == name {
			m.Models[i].Digest = newDigest
			m.Models[i].ReadyAt = future
			m.Models[i].Retrains = 3
		}
	}
	if err := st.PutManifest(m); err != nil {
		t.Fatal(err)
	}

	// A local rewrite (SetDefault is the cheapest trigger) must keep the
	// newer remote record, not clobber it with the older local one.
	if err := r1.SetDefault(name); err != nil {
		t.Fatal(err)
	}
	got, _, err := st.GetManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Models) != 1 || got.Models[0].Digest != newDigest || !got.Models[0].ReadyAt.Equal(future) {
		t.Fatalf("LWW lost the newer record: %+v", got.Models)
	}

	// The sync loop then pulls the newer pipeline locally.
	rep, err := r1.SyncManifest(time.Now())
	if err != nil || len(rep.Swapped) != 1 {
		t.Fatalf("sync after LWW: %+v, %v", rep, err)
	}
	if r1.ArtifactDigest(name) != newDigest {
		t.Fatalf("local digest %q, want %q", r1.ArtifactDigest(name), newDigest)
	}
}
