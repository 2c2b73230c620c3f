package registry

import (
	"errors"
	"testing"
	"time"
)

// chaosSequence runs a fixed operation sequence and returns which ops
// failed by injection.
func chaosSequence(t *testing.T, cs *ChaosBlob, n int) []bool {
	t.Helper()
	st := NewStore(cs)
	outcomes := make([]bool, n)
	for i := range outcomes {
		_, err := st.PutArtifact([]byte{byte(i)})
		outcomes[i] = errors.Is(err, ErrInjected)
	}
	return outcomes
}

func TestChaosBlobDeterministic(t *testing.T) {
	fs1, err := OpenFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := OpenFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ChaosConfig{ErrRate: 0.3, Seed: 42}
	a := chaosSequence(t, NewChaosBlob(fs1.Backend(), cfg), 200)
	b := chaosSequence(t, NewChaosBlob(fs2.Backend(), cfg), 200)
	var fails int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: injection diverged between identical seeds", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("injected %d/%d failures at rate 0.3; want some of each", fails, len(a))
	}
}

func TestChaosBlobTornWrites(t *testing.T) {
	fs, err := OpenFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cs := NewChaosBlob(fs.Backend(), ChaosConfig{TornRate: 1, Seed: 7})
	st := NewStore(cs)
	data := []byte("will-be-lost")
	dig, err := st.PutArtifact(data)
	if err != nil {
		t.Fatalf("torn write must report success: %v", err)
	}
	if dig != Digest(data) {
		t.Fatalf("torn write digest = %s, want the content digest", dig)
	}
	// The write was lost: reading it back through the bare store misses.
	if _, err := fs.GetArtifact(dig); !errors.Is(err, ErrArtifactNotFound) {
		t.Fatalf("after torn write, GetArtifact = %v, want ErrArtifactNotFound", err)
	}
	if cs.Torn() != 1 {
		t.Fatalf("Torn() = %d, want 1", cs.Torn())
	}
	if err := st.PutManifest(Manifest{Version: ManifestVersion}); err != nil {
		t.Fatalf("torn manifest write must report success: %v", err)
	}
	if _, ok, err := fs.GetManifest(); err != nil || ok {
		t.Fatalf("torn manifest must not persist: ok=%v err=%v", ok, err)
	}
}

func TestRetryBlobHealsChaos(t *testing.T) {
	// The full resilience stack: filesystem store ← chaos (40% errors) ← retry.
	// With 4 attempts per op the per-op failure probability is 0.4^4 ≈
	// 2.6%, so the overwhelming majority of operations must succeed; the
	// rare exhausted operation must still surface a typed transient error.
	fs, err := OpenFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cs := NewChaosBlob(fs.Backend(), ChaosConfig{ErrRate: 0.4, Seed: 11})
	rb := NewRetryBlob(cs, RetryConfig{Seed: 11, BreakerThreshold: 100, Sleep: func(time.Duration) {}})
	st := NewStore(rb)
	okOps := 0
	for i := 0; i < 50; i++ {
		data := []byte{byte(i), byte(i >> 8)}
		dig, err := st.PutArtifact(data)
		if err != nil {
			if !Transient(err) {
				t.Fatalf("put %d: exhausted retries must stay transient, got %v", i, err)
			}
			continue
		}
		got, err := st.GetArtifact(dig)
		if err != nil {
			if !Transient(err) {
				t.Fatalf("get %d: %v", i, err)
			}
			continue
		}
		if string(got) != string(data) {
			t.Fatalf("get %d: %q, want %q", i, got, data)
		}
		okOps++
	}
	if okOps < 40 {
		t.Fatalf("only %d/50 round trips survived retries; the stack is not absorbing 40%% chaos", okOps)
	}
	if cs.Injected() == 0 {
		t.Fatal("chaos injected nothing at 40%; the test exercised no faults")
	}
	if h := rb.StoreHealth(); h.Retries == 0 {
		t.Fatalf("health = %+v; want recorded retries", h)
	}
}
