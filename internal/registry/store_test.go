package registry

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"nfvxai/internal/core"
	"nfvxai/internal/dataset"
	"nfvxai/internal/ml"
	"nfvxai/internal/wire"
)

// storeTestPipeline trains a small real pipeline without the simulator.
func storeTestPipeline(t *testing.T, kind core.ModelKind, seed int64) *core.Pipeline {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := dataset.New(dataset.Regression, "a", "b", "c")
	for i := 0; i < 200; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		ds.Add(x, 3*x[0]-x[1]+0.2*rng.NormFloat64())
	}
	p, err := core.NewPipeline(kind, ds, seed)
	if err != nil {
		t.Fatal(err)
	}
	p.ShapSamples = 128
	return p
}

func testSpec(name string) Spec {
	return Spec{Name: name, Scenario: "web", Model: "cart", Target: "util", Hours: 1, Seed: 1}
}

func TestFSStoreArtifactRoundTrip(t *testing.T) {
	st, err := OpenFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("artifact payload")
	d1, err := st.PutArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := st.PutArtifact(data)
	if err != nil || d1 != d2 {
		t.Fatalf("content addressing not idempotent: %s vs %s (%v)", d1, d2, err)
	}
	got, err := st.GetArtifact(d1)
	if err != nil || string(got) != string(data) {
		t.Fatalf("get = %q, %v", got, err)
	}
	if _, err := st.GetArtifact(Digest([]byte("other"))); !errors.Is(err, ErrArtifactNotFound) {
		t.Errorf("missing artifact: err = %v, want ErrArtifactNotFound", err)
	}
}

func TestWarmStartRestoresModelsScenariosAndDefault(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// First process: store-attached registry, two models, one runtime
	// scenario, explicit default.
	r1 := New()
	r1.OnStoreError = func(err error) { t.Errorf("store error: %v", err) }
	r1.UseStore(st)
	scenario := core.WebScenarioSpec()
	scenario.Name = "custom-web"
	if _, err := r1.Scenarios.Register(scenario); err != nil {
		t.Fatal(err)
	}
	if err := r1.PersistManifest(); err != nil {
		t.Fatal(err)
	}
	pA := storeTestPipeline(t, core.ModelTree, 1)
	pB := storeTestPipeline(t, core.ModelLinear, 2)
	if _, err := r1.AddReady(testSpec("m/a"), pA, time.Now()); err != nil {
		t.Fatal(err)
	}
	spB := testSpec("m/b")
	spB.Model = "linear"
	if _, err := r1.AddReady(spB, pB, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := r1.SetDefault("m/b"); err != nil {
		t.Fatal(err)
	}

	// Second process: fresh registry warm-started from the same store.
	r2 := New()
	r2.UseStore(st)
	rep, err := r2.SyncManifest(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 0 {
		t.Fatalf("restore errors: %v", rep.Errors)
	}
	if len(rep.Adopted) != 2 || rep.Scenarios != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if r2.DefaultName() != "m/b" {
		t.Errorf("default = %q, want m/b", r2.DefaultName())
	}
	if _, err := r2.Scenarios.Lookup("custom-web"); err != nil {
		t.Errorf("runtime scenario not restored: %v", err)
	}
	e, err := r2.Get("m/a")
	if err != nil || e.Status != StatusReady || e.Spec.Model != "cart" {
		t.Fatalf("restored entry = %+v, %v", e, err)
	}

	// Restored predictions are bit-identical to the saved pipeline's.
	probe := pA.Test.X
	want := pA.PredictBatch(probe)
	p2, err := r2.Lookup("m/a")
	if err != nil {
		t.Fatal(err)
	}
	got := p2.PredictBatch(probe)
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("prediction %d differs after warm start", i)
		}
	}
}

func TestWarmStartSwapPersistsRetrainedPipeline(t *testing.T) {
	st, err := OpenFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r1 := New()
	r1.UseStore(st)
	if _, err := r1.AddReady(testSpec("m"), storeTestPipeline(t, core.ModelTree, 1), time.Now()); err != nil {
		t.Fatal(err)
	}
	retrained := storeTestPipeline(t, core.ModelTree, 99)
	if _, err := r1.Swap("m", retrained, time.Now()); err != nil {
		t.Fatal(err)
	}

	r2 := New()
	r2.UseStore(st)
	rep, err := r2.SyncManifest(time.Now())
	if err != nil || len(rep.Errors) != 0 {
		t.Fatalf("warm start: %v %v", err, rep.Errors)
	}
	e, err := r2.Get("m")
	if err != nil || e.Retrains != 1 {
		t.Fatalf("entry = %+v, %v (want retrains 1)", e, err)
	}
	p2, _ := r2.Lookup("m")
	x := retrained.Test.X[0]
	if math.Float64bits(p2.Model.Predict(x)) != math.Float64bits(retrained.Model.Predict(x)) {
		t.Error("warm start served the pre-swap pipeline")
	}
}

// corruptionFixture builds a filesystem store holding one model named
// "good" and returns the store and its directory.
func corruptionFixture(t *testing.T) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	r.UseStore(st)
	if _, err := r.AddReady(testSpec("good"), storeTestPipeline(t, core.ModelTree, 1), time.Now()); err != nil {
		t.Fatal(err)
	}
	return st, dir
}

func TestCorruptionTruncatedArtifact(t *testing.T) {
	st, dir := corruptionFixture(t)
	m, ok, err := st.GetManifest()
	if err != nil || !ok {
		t.Fatal(err)
	}
	// Truncate the artifact on disk: content no longer matches its digest,
	// the signature of a torn write.
	path := filepath.Join(dir, "artifacts", m.Models[0].Digest)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	r := New()
	r.UseStore(st)
	rep, err := r.SyncManifest(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 1 || !errors.Is(rep.Errors[0].Err, ErrCorruptArtifact) {
		t.Fatalf("errors = %v, want one ErrCorruptArtifact", rep.Errors)
	}
	if _, err := r.Get("good"); !errors.Is(err, ErrNotFound) {
		t.Errorf("corrupt model was registered anyway: %v", err)
	}
}

func TestCorruptionDecodeTruncation(t *testing.T) {
	p := storeTestPipeline(t, core.ModelTree, 1)
	art, err := EncodeArtifact(testSpec("m"), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeArtifact(art[:len(art)-10]); !errors.Is(err, ErrCorruptArtifact) || !errors.Is(err, wire.ErrTruncated) {
		t.Errorf("err = %v, want ErrCorruptArtifact wrapping wire.ErrTruncated", err)
	}
}

func TestCorruptionManifestVersionMismatch(t *testing.T) {
	st, _ := corruptionFixture(t)
	m, _, err := st.GetManifest()
	if err != nil {
		t.Fatal(err)
	}
	m.Version = ManifestVersion + 1
	if err := st.PutManifest(m); err != nil {
		t.Fatal(err)
	}
	r := New()
	r.UseStore(st)
	if _, err := r.SyncManifest(time.Now()); !errors.Is(err, ErrManifestVersion) {
		t.Fatalf("err = %v, want ErrManifestVersion", err)
	}
	if r.Len() != 0 {
		t.Error("registry restored models from an incompatible manifest")
	}
}

func TestCorruptionUnknownModelKind(t *testing.T) {
	// Hand-build an artifact whose pipeline embeds an unknown model kind
	// tag, as a future build (or corruption) would produce.
	p := storeTestPipeline(t, core.ModelTree, 1)
	art, err := EncodeArtifact(testSpec("m"), p)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the embedded ml kind tag: the serialized blob contains the
	// tag "tree.cart" exactly once inside the model envelope.
	corrupted := append([]byte(nil), art...)
	idx := bytes.Index(corrupted, []byte("tree.cart"))
	if idx < 0 {
		t.Fatal("kind tag not found in artifact")
	}
	copy(corrupted[idx:], []byte("tree.wat!"))
	_, _, err = DecodeArtifact(corrupted)
	if !errors.Is(err, ErrCorruptArtifact) || !errors.Is(err, ml.ErrUnknownModelKind) {
		t.Fatalf("err = %v, want ErrCorruptArtifact wrapping ml.ErrUnknownModelKind", err)
	}
}

// TestCorruptionLeavesPreviousPipelineServing: a registry that already
// serves a model keeps serving it when a later sync round's restore of
// the same name fails (the corrupt artifact is skipped, not swapped).
// The live model is trained before the store is written, so the stored
// record is the newer one and the round does read its artifact.
func TestCorruptionLeavesPreviousPipelineServing(t *testing.T) {
	// This registry already serves "good" (trained in-process); the
	// corrupt store must not disturb it.
	r := New()
	live := storeTestPipeline(t, core.ModelLinear, 7)
	if _, err := r.AddReady(testSpec("good"), live, time.Now()); err != nil {
		t.Fatal(err)
	}

	st, dir := corruptionFixture(t)
	m, _, err := st.GetManifest()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "artifacts", m.Models[0].Digest)
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	r.UseStore(st)
	rep, err := r.SyncManifest(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 1 {
		t.Fatalf("errors = %v", rep.Errors)
	}
	got, err := r.Lookup("good")
	if err != nil || got != live {
		t.Fatalf("previous pipeline displaced: %v", err)
	}
}

// TestTransientRestoreFailureKeepsManifestRecord: a model whose
// artifact could not be read at one boot must survive later manifest
// rewrites (orphan carry-forward) and restore normally once readable.
func TestTransientRestoreFailureKeepsManifestRecord(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := New()
	r1.UseStore(st)
	if _, err := r1.AddReady(testSpec("keep/a"), storeTestPipeline(t, core.ModelTree, 1), time.Now()); err != nil {
		t.Fatal(err)
	}
	spB := testSpec("keep/b")
	spB.Model = "linear"
	if _, err := r1.AddReady(spB, storeTestPipeline(t, core.ModelLinear, 2), time.Now()); err != nil {
		t.Fatal(err)
	}

	// Simulate a transient read failure of B's artifact: move it aside.
	m, _, err := st.GetManifest()
	if err != nil {
		t.Fatal(err)
	}
	var digB string
	for _, rec := range m.Models {
		if rec.Spec.Name == "keep/b" {
			digB = rec.Digest
		}
	}
	path := filepath.Join(dir, "artifacts", digB)
	if err := os.Rename(path, path+".aside"); err != nil {
		t.Fatal(err)
	}

	r2 := New()
	r2.UseStore(st)
	rep, err := r2.SyncManifest(time.Now())
	if err != nil || len(rep.Errors) != 1 || len(rep.Adopted) != 1 {
		t.Fatalf("warm start: %v, %+v", err, rep)
	}
	// A manifest rewrite (retrain of A) must NOT evict B's record.
	if _, err := r2.Swap("keep/a", storeTestPipeline(t, core.ModelTree, 9), time.Now()); err != nil {
		t.Fatal(err)
	}
	m2, _, err := st.GetManifest()
	if err != nil {
		t.Fatal(err)
	}
	foundB := false
	for _, rec := range m2.Models {
		if rec.Spec.Name == "keep/b" && rec.Digest == digB {
			foundB = true
		}
	}
	if !foundB {
		t.Fatal("orphaned record keep/b was evicted from the manifest")
	}

	// The "blip" clears; the next boot restores both.
	if err := os.Rename(path+".aside", path); err != nil {
		t.Fatal(err)
	}
	r3 := New()
	r3.UseStore(st)
	rep3, err := r3.SyncManifest(time.Now())
	if err != nil || len(rep3.Errors) != 0 || len(rep3.Adopted) != 2 {
		t.Fatalf("recovered warm start: %v, %+v", err, rep3)
	}
}

// TestOrphanRecordSurvivesUnreadableManifest pins the orphan
// carry-forward itself. A rewrite normally merges the previous manifest,
// which already keeps a record this node never loaded; when that
// manifest cannot be read, only the orphan keeps the record of a model
// whose artifact failed to load in the sync round.
func TestOrphanRecordSurvivesUnreadableManifest(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := New()
	r1.UseStore(st)
	if _, err := r1.AddReady(testSpec("keep/a"), storeTestPipeline(t, core.ModelTree, 1), time.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.AddReady(testSpec("keep/b"), storeTestPipeline(t, core.ModelTree, 2), time.Now()); err != nil {
		t.Fatal(err)
	}
	digB := r1.ArtifactDigest("keep/b")
	path := filepath.Join(dir, "artifacts", digB)
	if err := os.Rename(path, path+".aside"); err != nil {
		t.Fatal(err)
	}

	r2 := New()
	r2.UseStore(st)
	if rep, err := r2.SyncManifest(time.Now()); err != nil || len(rep.Errors) != 1 || len(rep.Adopted) != 1 {
		t.Fatalf("sync round: %v, %+v", err, rep)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Swap("keep/a", storeTestPipeline(t, core.ModelTree, 9), time.Now()); err != nil {
		t.Fatal(err)
	}
	m, _, err := st.GetManifest()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(m.Models, func(rec ModelRecord) bool { return rec.Spec.Name == "keep/b" && rec.Digest == digB }) {
		t.Fatalf("the rewrite dropped keep/b's record: %+v", m.Models)
	}
}

// TestSwapGCsSupersededArtifacts: retrains must not grow the store
// without bound — the superseded artifact is deleted once the manifest
// stops referencing it.
func TestSwapGCsSupersededArtifacts(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	r.OnStoreError = func(err error) { t.Errorf("store error: %v", err) }
	r.UseStore(st)
	if _, err := r.AddReady(testSpec("m"), storeTestPipeline(t, core.ModelTree, 1), time.Now()); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if _, err := r.Swap("m", storeTestPipeline(t, core.ModelTree, 10+i), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, "artifacts"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("artifacts on disk = %d, want 1 (superseded ones GC'd)", len(entries))
	}
	// And the survivor is the live one: a warm start serves the last swap.
	r2 := New()
	r2.UseStore(st)
	rep, err := r2.SyncManifest(time.Now())
	if err != nil || len(rep.Errors) != 0 || len(rep.Adopted) != 1 {
		t.Fatalf("warm start after GC: %v %+v", err, rep)
	}
	e, _ := r2.Get("m")
	if e.Retrains != 3 {
		t.Fatalf("retrains = %d", e.Retrains)
	}
}

// TestLoadPipelineRejectsWidthMismatch: a model wider than its embedded
// schema must fail decode, not panic at predict time.
func TestLoadPipelineRejectsWidthMismatch(t *testing.T) {
	p := storeTestPipeline(t, core.ModelTree, 1)
	art, err := EncodeArtifact(testSpec("m"), p)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the artifact with a dataset narrowed by one feature while
	// keeping the 3-feature model: decode must reject the pairing.
	p2 := &core.Pipeline{
		Kind:        p.Kind,
		Model:       p.Model,
		Train:       p.Train.DropFeatures(p.Train.Names[len(p.Train.Names)-1]),
		Test:        p.Test.DropFeatures(p.Test.Names[len(p.Test.Names)-1]),
		Background:  p.Background,
		ShapSamples: p.ShapSamples,
		Seed:        p.Seed,
	}
	mismatched, err := EncodeArtifact(testSpec("m"), p2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeArtifact(mismatched); !errors.Is(err, ErrCorruptArtifact) {
		t.Fatalf("width mismatch: err = %v, want ErrCorruptArtifact", err)
	}
	// The untampered artifact still decodes.
	if _, _, err := DecodeArtifact(art); err != nil {
		t.Fatal(err)
	}
}

func TestExportImportArtifact(t *testing.T) {
	r1 := New()
	p := storeTestPipeline(t, core.ModelForest, 3)
	if _, err := r1.AddReady(testSpec("m/x"), p, time.Now()); err != nil {
		t.Fatal(err)
	}
	art, err := r1.ExportArtifact("m/x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.ExportArtifact("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("export missing: %v", err)
	}

	r2 := New()
	name, err := r2.ImportArtifact(art, "", time.Now())
	if err != nil || name != "m/x" {
		t.Fatalf("import = %q, %v", name, err)
	}
	if _, err := r2.ImportArtifact(art, "", time.Now()); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate import: err = %v, want ErrExists", err)
	}
	name2, err := r2.ImportArtifact(art, "m/y", time.Now())
	if err != nil || name2 != "m/y" {
		t.Fatalf("renamed import = %q, %v", name2, err)
	}
	p2, err := r2.Lookup("m/x")
	if err != nil {
		t.Fatal(err)
	}
	x := p.Test.X[0]
	if math.Float64bits(p2.Model.Predict(x)) != math.Float64bits(p.Model.Predict(x)) {
		t.Error("imported model predicts differently")
	}
}

// TestWarmStartRefusesOverCapScenarioName: a stored scenario spec whose
// name is over core.MaxScenarioNameLen (written before the cap existed)
// no longer validates, so warm start refuses it like any other spec that
// fails validation: it is reported in the report's Errors, and the rest
// of the manifest restores. The next manifest write keeps the refused
// spec, so it is reported again at every boot rather than lost.
func TestWarmStartRefusesOverCapScenarioName(t *testing.T) {
	st := NewMemStore()
	long := core.WebScenarioSpec()
	long.Name = strings.Repeat("n", core.MaxScenarioNameLen+1)
	ok := core.WebScenarioSpec()
	ok.Name = strings.Repeat("n", core.MaxScenarioNameLen)
	if err := st.PutManifest(Manifest{Version: ManifestVersion, Scenarios: []core.ScenarioSpec{long, ok}}); err != nil {
		t.Fatal(err)
	}
	r := New()
	r.UseStore(st)
	rep, err := r.SyncManifest(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenarios != 1 || len(rep.Errors) != 1 || rep.Errors[0].Name != "scenario/"+long.Name {
		t.Fatalf("report = %+v, want the 64-character name restored and the 65-character one refused", rep)
	}
	if _, err := r.Scenarios.Lookup(ok.Name); err != nil {
		t.Errorf("scenario at the cap not restored: %v", err)
	}
	if _, err := r.Scenarios.Lookup(long.Name); err == nil {
		t.Error("scenario over the cap restored")
	}
	if err := r.PersistManifest(); err != nil {
		t.Fatal(err)
	}
	m, _, err := st.GetManifest()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(m.Scenarios, func(sp core.ScenarioSpec) bool { return sp.Name == long.Name }) {
		t.Error("the next manifest write dropped the refused spec")
	}
}
