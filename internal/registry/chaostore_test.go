package registry

import (
	"errors"
	"testing"
	"time"
)

// chaosSequence runs a fixed operation sequence and returns which ops
// failed by injection.
func chaosSequence(t *testing.T, cs *ChaosStore, n int) []bool {
	t.Helper()
	outcomes := make([]bool, n)
	for i := range outcomes {
		_, err := cs.PutArtifact([]byte{byte(i)})
		outcomes[i] = errors.Is(err, ErrInjected)
	}
	return outcomes
}

func TestChaosStoreDeterministic(t *testing.T) {
	fs1, err := OpenFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := OpenFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ChaosConfig{ErrRate: 0.3, Seed: 42}
	a := chaosSequence(t, NewChaosStore(fs1, cfg), 200)
	b := chaosSequence(t, NewChaosStore(fs2, cfg), 200)
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

func TestChaosStoreTornWrites(t *testing.T) {
	fs, err := OpenFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cs := NewChaosStore(fs, ChaosConfig{TornRate: 1, Seed: 7})
	data := []byte("will-be-lost")
	dig, err := cs.PutArtifact(data)
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
	if err := cs.PutManifest(Manifest{Version: ManifestVersion}); err != nil {
		t.Fatalf("torn manifest write must report success: %v", err)
	}
	if _, ok, err := fs.GetManifest(); err != nil || ok {
		t.Fatalf("torn manifest must not persist: ok=%v err=%v", ok, err)
	}
}

func TestRetryStoreHealsChaos(t *testing.T) {
	// The full resilience stack: filesystem store ← chaos (40% errors) ← retry.
	// With 4 attempts per op the per-op failure probability is 0.4^4 ≈
	// 2.6%, so the overwhelming majority of operations must succeed; the
	// rare exhausted operation must still surface a typed transient error.
	fs, err := OpenFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cs := NewChaosStore(fs, ChaosConfig{ErrRate: 0.4, Seed: 11})
	rs := NewRetryStore(cs, RetryConfig{Seed: 11, BreakerThreshold: 100, Sleep: func(time.Duration) {}})
	okOps := 0
	for i := 0; i < 50; i++ {
		data := []byte{byte(i), byte(i >> 8)}
		dig, err := rs.PutArtifact(data)
		if err != nil {
			if !Transient(err) {
				t.Fatalf("put %d: exhausted retries must stay transient, got %v", i, err)
			}
			continue
		}
		got, err := rs.GetArtifact(dig)
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
	if h := rs.StoreHealth(); h.Retries == 0 {
		t.Fatalf("health = %+v; want recorded retries", h)
	}
}
