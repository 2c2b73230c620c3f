package serve

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"nfvxai/internal/cluster"
	"nfvxai/internal/registry"
	"nfvxai/internal/testutil/leakcheck"
)

// unbuildable is a spec whose build always fails: a thousandth of a
// virtual hour holds no 5 s epoch, so the simulator produces no data.
var unbuildable = registry.Spec{Name: "web/cart/util", Scenario: "web", Model: "cart", Target: "util", Hours: 0.0001, Seed: 1}

// TestOpenRefusesBadConfig pins every refusal of Open to the point before
// the first build: each config also carries an unbuildable first model,
// so a refusal that came after training would surface as the build's
// error instead of ErrConfig. No refused Open leaves a goroutine behind.
func TestOpenRefusesBadConfig(t *testing.T) {
	self := cluster.Config{Self: "a", Nodes: []cluster.Node{{ID: "a", URL: "http://127.0.0.1:1"}}}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"tier 2 without a store", Config{CacheMB: 1, CacheTier2: true}},
		{"tier 2 with the cache off", Config{Store: registry.NewMemBlob(), CacheTier2: true}},
		{"peers without a node id", Config{Cluster: cluster.Config{Nodes: self.Nodes}}},
		{"members file without a node id", Config{Cluster: cluster.Config{MembersFile: "members.json"}}},
		{"node id outside the membership", Config{Cluster: cluster.Config{Self: "z", Nodes: self.Nodes}}},
		{"feed name not a path segment", Config{Feeds: []FeedRequest{{Name: "a/b", Scenario: "web"}}}},
		{"feed rate out of range", Config{Feeds: []FeedRequest{{Name: "live", Scenario: "web", Rate: -1}}}},
		{"feed of an unknown scenario", Config{Cluster: self, Store: registry.NewMemBlob(), Feeds: []FeedRequest{{Name: "live", Scenario: "mars"}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Models = append([]registry.Spec{unbuildable}, cfg.Models...)
			if n, err := Open(cfg); !errors.Is(err, ErrConfig) {
				if n != nil {
					n.Close()
				}
				t.Fatalf("Open: err = %v, want ErrConfig", err)
			}
		})
	}
	// The default may name a background build, so it is checked after
	// the builds; with no models it is still refused.
	if _, err := Open(Config{Default: "nope"}); !errors.Is(err, ErrConfig) {
		t.Fatalf("unknown default: err = %v, want ErrConfig", err)
	}
	if err := leakcheck.Check(2 * time.Second); err != nil {
		t.Fatalf("a refused Open left goroutines: %v", err)
	}
}

// TestOpenFailedBuilds: a failed synchronous first build fails Open, and
// a failed background build is reported on Failed.
func TestOpenFailedBuilds(t *testing.T) {
	if _, err := Open(Config{Models: []registry.Spec{unbuildable}}); err == nil || errors.Is(err, ErrConfig) {
		t.Fatalf("failed first build: err = %v, want the build's error", err)
	}

	n, err := Open(Config{Models: []registry.Spec{
		{Scenario: "web", Model: "linear", Target: "util", Hours: 0.2, Seed: 1},
		unbuildable,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	select {
	case err := <-n.Failed():
		if !strings.Contains(err.Error(), "initial training of web/cart/util failed") {
			t.Fatalf("Failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a failed background build was not reported")
	}
}

// TestOpenStoreChain: the registry persists through a RetryBlob over the
// bucket.
func TestOpenStoreChain(t *testing.T) {
	n, err := Open(Config{Store: registry.NewMemBlob(), CacheMB: 1, CacheTier2: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, ok := n.Registry().StoreBackend().Backend().(*registry.RetryBlob); !ok {
		t.Fatalf("registry store backend = %T, want *registry.RetryBlob", n.Registry().StoreBackend().Backend())
	}
}

// TestNodeCloseWhileBuilding: Close stops everything Open started — the
// build watcher, the ring's probe loop, the sync loop and the boot feed —
// while an initial background build is still training. The build itself
// belongs to the registry and runs to the end.
func TestNodeCloseWhileBuilding(t *testing.T) {
	n, err := Open(Config{
		Models: []registry.Spec{
			{Scenario: "web", Model: "linear", Target: "util", Hours: 0.2, Seed: 1},
			{Scenario: "web", Model: "rf", Target: "util", Hours: 2, Seed: 1},
		},
		Store:        registry.NewMemBlob(),
		SyncInterval: 10 * time.Millisecond,
		Cluster:      cluster.Config{Self: "a", Nodes: []cluster.Node{{ID: "a", URL: "http://127.0.0.1:1"}}, ProbeInterval: 10 * time.Millisecond},
		Feeds:        []FeedRequest{{Name: "live", Scenario: "web"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := n.Registry()
	built, err := reg.Built("web/rf/util")
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	// A stopped goroutine may take a moment to unwind after the wait that
	// Close made for it, so poll briefly; far less than the build lasts.
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); ; time.Sleep(5 * time.Millisecond) {
		stacks, left := string(buf[:runtime.Stack(buf, true)]), ""
		for _, frame := range []string{"serve.(*Node)", "cluster.(*Syncer)", "cluster.(*Cluster)", "feed.(*Feed)"} {
			if strings.Contains(stacks, frame) {
				left = frame
			}
		}
		if left == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a %s goroutine outlived Close:\n%s", left, stacks)
		}
	}
	if e, _ := reg.Get("web/rf/util"); e.Status != registry.StatusTraining {
		t.Fatalf("background build already %s; the check needs it running", e.Status)
	}
	select {
	case <-built:
	case <-time.After(60 * time.Second):
		t.Fatal("background build did not finish")
	}
}
