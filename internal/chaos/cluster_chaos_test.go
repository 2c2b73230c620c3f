package chaos

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nfvxai/internal/cluster"
	"nfvxai/internal/registry"
	"nfvxai/internal/serve"
)

// Cluster chaos: the node-down and partition scenarios from the serving
// fleet, run on top of the same fault-injected store plane as the rest
// of the suite. Every node reads and writes the shared bucket through a
// ChaosBlob (20% error rate) behind a RetryBlob, so replication sync,
// manifest merges and artifact fetches all run under store faults while
// nodes die. The resilience contract is unchanged: every response stays
// inside allowedStatus, and the fleet keeps answering 200s.

// fleetNode is one chaos-fleet member: a node booted through serve.Open
// whose store chain is shared-bucket ← ChaosBlob ← RetryBlob ← Store.
type fleetNode struct {
	id    string
	reg   *registry.Registry
	chaos *registry.ChaosBlob
	cl    *cluster.Cluster
	hs    *httptest.Server
}

// newChaosFleet boots n nodes over one shared in-memory bucket with
// per-node store fault injection. Store errors and sync errors are
// tolerated (the retry plane exists to absorb them); only contract
// violations fail the test. As in the cluster e2e fleet, the listeners
// exist before any node opens with the full membership, and each serves
// only once wired.
func newChaosFleet(t *testing.T, n int, errRate float64, seed int64) []*fleetNode {
	t.Helper()
	blob := registry.NewMemBlob()
	nodes := make([]*fleetNode, n)
	members := make([]cluster.Node, n)
	for i := range nodes {
		hs := httptest.NewUnstartedServer(nil)
		nodes[i] = &fleetNode{id: fmt.Sprintf("node-%c", 'a'+i), hs: hs}
		members[i] = cluster.Node{ID: nodes[i].id, URL: "http://" + hs.Listener.Addr().String()}
	}
	for i, nd := range nodes {
		nd.chaos = registry.NewChaosBlob(blob, registry.ChaosConfig{Seed: seed + int64(i)})
		node, err := serve.Open(serve.Config{
			Store:        nd.chaos,
			Retry:        registry.RetryConfig{Seed: seed + int64(i), Sleep: func(time.Duration) {}},
			SyncInterval: 100 * time.Millisecond,
			Cluster: cluster.Config{
				Self:          nd.id,
				Nodes:         members,
				Replication:   2,
				ProbeInterval: 50 * time.Millisecond,
				ProbeTimeout:  500 * time.Millisecond,
				DownAfter:     2,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		nd.chaos.SetErrRate(errRate) // the node boots over a healthy store
		nd.reg, nd.cl = node.Registry(), node.Cluster()
		nd.reg.OnStoreError = func(error) {} // chaos-injected; retries absorb most
		nd.hs.Config.Handler = node
		nd.hs.Start()
		t.Cleanup(func() {
			nd.hs.Close()
			node.Close()
		})
	}
	return nodes
}

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// notOwnedBy returns a model name whose owner set excludes the node, so
// a request for it at that node must proxy or fall back.
func notOwnedBy(t *testing.T, c *cluster.Cluster, id string) string {
	t.Helper()
	for i := 0; i < 2000; i++ {
		name := fmt.Sprintf("web/rf/m%d", i)
		owned := false
		for _, o := range c.Owners(name) {
			if o.ID == id {
				owned = true
				break
			}
		}
		if !owned {
			return name
		}
	}
	t.Fatal("no model found outside the node's ownership")
	return ""
}

func chaosSpec(name string) registry.Spec {
	return registry.Spec{Name: name, Scenario: "web", Model: "rf", Target: "util", Hours: 1, Seed: 1}
}

// TestChaosClusterOwnerDown kills one node of a three-node fleet — the
// owner a survivor proxies to — and hammers the survivors while every
// store operation fails 20% of the time. All responses must stay inside
// the resilience contract (fallback and re-route may shed, never 500),
// the fleet must keep producing 200s, and the survivors' health view
// must mark the dead peer down.
func TestChaosClusterOwnerDown(t *testing.T) {
	nodes := newChaosFleet(t, 3, 0.2, 42)
	b := nodes[1]
	name := notOwnedBy(t, b.cl, b.id)
	if _, err := nodes[0].reg.AddReady(chaosSpec(name), trainPipeline(t), time.Now()); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		nd := nd
		waitUntil(t, 10*time.Second, nd.id+" adopting "+name, func() bool {
			_, err := nd.reg.Lookup(name)
			return err == nil
		})
	}

	// Kill the node B currently routes to (abrupt death, not a drain).
	target, decision := b.cl.Route(name)
	if decision != cluster.RouteProxy {
		t.Fatalf("route = %v via %v; B must not own %s", target, decision, name)
	}
	var dead *fleetNode
	for _, nd := range nodes {
		if nd.id == target.ID {
			dead = nd
		}
	}
	dead.hs.CloseClientConnections()
	dead.hs.Close()

	// Hammer the survivors concurrently under store chaos + node death.
	p := trainPipeline(t)
	instance := append([]float64(nil), p.Train.X[0]...)
	survivors := []*fleetNode{}
	for _, nd := range nodes {
		if nd != dead {
			survivors = append(survivors, nd)
		}
	}
	var ok200 atomic.Int64
	var wg sync.WaitGroup
	const workers, rounds = 4, 10
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				nd := survivors[(w+i)%len(survivors)]
				st := &stack{srv: nd.hs}
				switch i % 3 {
				case 0:
					resp, err := st.post("/v1/models/"+name+"/predict", map[string]any{"features": instance})
					if checkResponse(t, "predict-during-death", resp, err) == 200 {
						ok200.Add(1)
					}
				case 1:
					resp, err := st.post("/v1/models/"+name+"/explain", map[string]any{
						"features": instance, "budget_ms": 200,
					})
					checkResponse(t, "explain-during-death", resp, err)
				case 2:
					resp, err := st.get("/healthz")
					checkResponse(t, "healthz-during-death", resp, err)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	if ok200.Load() == 0 {
		t.Fatal("no successful predicts after owner death under store chaos")
	}

	// Survivors converge on the death: probe loops mark the peer down.
	for _, nd := range survivors {
		nd := nd
		waitUntil(t, 5*time.Second, nd.id+" marking "+dead.id+" down", func() bool {
			for _, p := range nd.cl.Peers() {
				if p.ID == dead.id {
					return !p.Alive
				}
			}
			return false
		})
	}
	if nodes[0].chaos.Injected() == 0 {
		t.Fatal("chaos store injected nothing; the scenario exercised no store faults")
	}
}

// TestChaosClusterPartitionedNodeStillSyncs partitions one node off the
// HTTP plane (its listener dies, peers mark it down) while the store
// plane stays reachable. The partitioned node must keep adopting models
// trained on the far side through the shared store — replication rides
// the store, not the peer network — and the majority side must keep
// serving within the contract, routing around the partitioned owner.
func TestChaosClusterPartitionedNodeStillSyncs(t *testing.T) {
	nodes := newChaosFleet(t, 3, 0.2, 7)
	a, c := nodes[0], nodes[2]

	// Partition C: peers can no longer reach it, but its own loops run on.
	c.hs.CloseClientConnections()
	c.hs.Close()
	for _, nd := range []*fleetNode{nodes[0], nodes[1]} {
		nd := nd
		waitUntil(t, 5*time.Second, nd.id+" marking "+c.id+" down", func() bool {
			for _, p := range nd.cl.Peers() {
				if p.ID == c.id {
					return !p.Alive
				}
			}
			return false
		})
	}

	// A model trained on A after the partition still reaches C: the sync
	// loop pulls it from the shared store with no peer HTTP involved.
	name := notOwnedBy(t, a.cl, a.id) // A must route it away from itself
	if _, err := a.reg.AddReady(chaosSpec(name), trainPipeline(t), time.Now()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "partitioned "+c.id+" adopting "+name, func() bool {
		_, err := c.reg.Lookup(name)
		return err == nil
	})

	// The majority side serves the model within the contract even when
	// the ring places it on the partitioned node: proxy to a live owner
	// or local fallback, never an untyped 5xx.
	p := trainPipeline(t)
	instance := append([]float64(nil), p.Train.X[0]...)
	var ok200 int
	for i := 0; i < 20; i++ {
		st := &stack{srv: nodes[i%2].hs}
		resp, err := st.post("/v1/models/"+name+"/predict", map[string]any{"features": instance})
		if checkResponse(t, "predict-during-partition", resp, err) == 200 {
			ok200++
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ok200 == 0 {
		t.Fatal("majority side served no 200s with one node partitioned")
	}

	// The fleet health view on the majority side reports the partition.
	st := &stack{srv: a.hs}
	resp, err := st.get("/healthz")
	if code := checkResponse(t, "healthz-partition", resp, err); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
}
