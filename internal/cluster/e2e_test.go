// The 3-node in-process cluster e2e: three full serve.Server stacks over
// one shared in-memory bucket, real HTTP between them, real probe and
// sync loops. This is the acceptance test of the cluster plane: a model
// trained on node A serves from node B within one sync interval; killing
// a model's owner re-routes to a replica with nothing worse than the
// typed shed/unavailable responses; /healthz reports the fleet view.
package cluster_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nfvxai/internal/cluster"
	"nfvxai/internal/core"
	"nfvxai/internal/dataset"
	"nfvxai/internal/registry"
	"nfvxai/internal/serve"
)

// e2eNode is one in-process cluster member: a node booted through
// serve.Open over the shared bucket, listening on a real socket.
type e2eNode struct {
	id  string
	reg *registry.Registry
	cl  *cluster.Cluster
	hs  *httptest.Server
}

// newFleet boots n nodes over one shared blob bucket. The listeners come
// first, unstarted, so every peer URL exists before any node opens; each
// node then opens with the full membership and starts serving only once
// it is wired. Cleanup tears everything down in reverse.
func newFleet(t testing.TB, n int) []*e2eNode {
	t.Helper()
	blob := registry.NewMemBlob()
	nodes := make([]*e2eNode, n)
	members := make([]cluster.Node, n)
	for i := range nodes {
		hs := httptest.NewUnstartedServer(nil)
		nodes[i] = &e2eNode{id: fmt.Sprintf("node-%c", 'a'+i), hs: hs}
		members[i] = cluster.Node{ID: nodes[i].id, URL: "http://" + hs.Listener.Addr().String()}
	}
	for _, nd := range nodes {
		node, err := serve.Open(serve.Config{
			Store:        blob,
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
		id := nd.id
		nd.reg, nd.cl = node.Registry(), node.Cluster()
		nd.reg.OnStoreError = func(err error) { t.Errorf("%s store error: %v", id, err) }
		nd.hs.Config.Handler = node
		nd.hs.Start()
		t.Cleanup(func() {
			nd.hs.Close()
			node.Close()
		})
	}
	return nodes
}

// trainPipeline trains a small real pipeline without the simulator.
func trainPipeline(t testing.TB, seed int64) *core.Pipeline {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := dataset.New(dataset.Regression, "a", "b", "c")
	for i := 0; i < 200; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		ds.Add(x, 3*x[0]-x[1]+0.2*rng.NormFloat64())
	}
	p, err := core.NewPipeline(core.ModelTree, ds, seed)
	if err != nil {
		t.Fatal(err)
	}
	p.ShapSamples = 64
	return p
}

func e2eSpec(name string) registry.Spec {
	return registry.Spec{Name: name, Scenario: "web", Model: "cart", Target: "util", Hours: 1, Seed: 1}
}

// modelNotOwnedBy scans deterministic ring placement for a model name
// whose owner set excludes the given node.
func modelNotOwnedBy(t testing.TB, c *cluster.Cluster, id string) string {
	t.Helper()
	for i := 0; i < 2000; i++ {
		name := fmt.Sprintf("web/cart/m%d", i)
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

func waitUntil(t testing.TB, timeout time.Duration, what string, cond func() bool) {
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

func doReq(t testing.TB, method, url string, body string, hdr map[string]string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestClusterTrainOnASyncServeEverywhere: the headline replication
// property — a model trained (AddReady) on one node is served by every
// other node within one sync interval, with proxied requests carrying
// the routing headers.
func TestClusterTrainOnASyncServeEverywhere(t *testing.T) {
	nodes := newFleet(t, 3)
	a, b := nodes[0], nodes[1]

	// Pick a name node B does NOT own, so a request to B must proxy.
	name := modelNotOwnedBy(t, b.cl, b.id)
	if _, err := a.reg.AddReady(e2eSpec(name), trainPipeline(t, 1), time.Now()); err != nil {
		t.Fatal(err)
	}

	// Every node adopts within a few sync intervals.
	for _, nd := range nodes {
		nd := nd
		waitUntil(t, 5*time.Second, nd.id+" adopting "+name, func() bool {
			_, err := nd.reg.Lookup(name)
			return err == nil
		})
	}

	// Serve through node B: the request proxies to an owner (one hop),
	// reusing the caller's request id end to end.
	resp := doReq(t, http.MethodPost, b.hs.URL+"/v1/models/"+name+"/predict",
		`{"features":[0.5,-0.2,1.0]}`, map[string]string{"X-Request-Id": "e2e-trace-1"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("predict via B: %d (%s)", resp.StatusCode, body)
	}
	if rid := resp.Header.Get(serve.HeaderRequestID); rid != "e2e-trace-1" {
		t.Fatalf("request id not propagated: %q", rid)
	}
	servedBy := resp.Header.Get(serve.HeaderServedBy)
	if servedBy == b.id || servedBy == "" {
		t.Fatalf("X-Served-By = %q; B does not own %s, an owner must have served it", servedBy, name)
	}
	var out struct {
		Prediction float64 `json:"prediction"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}

	// A body over the JSON cap stops at the proxy hop: 413, naming the
	// cap that applied.
	big := `{"features":[0.5,-0.2,1.0]}` + strings.Repeat(" ", serve.MaxJSONBytes)
	resp3 := doReq(t, http.MethodPost, b.hs.URL+"/v1/models/"+name+"/predict", big, nil)
	body3, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body3), fmt.Sprint(serve.MaxJSONBytes)) {
		t.Fatalf("oversized predict via B: %d (%s), want 413 naming %d bytes", resp3.StatusCode, body3, serve.MaxJSONBytes)
	}

	// GETs proxy the same way.
	resp2 := doReq(t, http.MethodGet, b.hs.URL+"/v1/models/"+name+"/schema", "", nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("schema via B: %d", resp2.StatusCode)
	}
	resp2.Body.Close()

	// The fleet health view: every peer alive, ownership reported, sync
	// loop converged.
	hresp := doReq(t, http.MethodGet, a.hs.URL+"/healthz", "", nil)
	var hr serve.HealthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hr.NodeID != a.id || hr.Cluster == nil {
		t.Fatalf("health = %+v", hr)
	}
	if hr.Cluster.Replication != 2 || len(hr.Cluster.Peers) != 3 {
		t.Fatalf("cluster block = %+v", hr.Cluster)
	}
	for _, p := range hr.Cluster.Peers {
		if !p.Alive {
			t.Fatalf("peer %s reported down: %+v", p.ID, hr.Cluster.Peers)
		}
	}
	if owners := hr.Cluster.Owners[name]; len(owners) != 2 {
		t.Fatalf("owners of %s = %v", name, owners)
	}
	if hr.Cluster.Sync == nil || hr.Cluster.Sync.Rounds == 0 {
		t.Fatalf("sync status = %+v", hr.Cluster.Sync)
	}
}

// TestClusterOwnerDownReroutes: killing the owner a request would proxy
// to re-routes traffic to a replica (or local fallback) with no
// responses outside {200, typed 503/504} and eventual steady 200s.
func TestClusterOwnerDownReroutes(t *testing.T) {
	nodes := newFleet(t, 3)
	b := nodes[1]

	name := modelNotOwnedBy(t, b.cl, b.id)
	if _, err := nodes[0].reg.AddReady(e2eSpec(name), trainPipeline(t, 1), time.Now()); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		nd := nd
		waitUntil(t, 5*time.Second, nd.id+" adopting "+name, func() bool {
			_, err := nd.reg.Lookup(name)
			return err == nil
		})
	}

	// The node a request from B routes to right now is the live primary.
	target, decision := b.cl.Route(name)
	if decision != cluster.RouteProxy {
		t.Fatalf("route = %v via %v; B must not own %s", target, decision, name)
	}
	var owner *e2eNode
	for _, nd := range nodes {
		if nd.id == target.ID {
			owner = nd
		}
	}

	// Kill the owner's listener (process death, not graceful exit).
	owner.hs.CloseClientConnections()
	owner.hs.Close()

	// Hammer B. Transport failures fall back to B's local synced copy,
	// the probe loop marks the owner down, and routing settles on the
	// replica — all without a single untyped 5xx.
	okFrom := map[string]int{}
	for i := 0; i < 40; i++ {
		resp := doReq(t, http.MethodPost, b.hs.URL+"/v1/models/"+name+"/predict",
			`{"features":[0.1,0.2,0.3]}`, nil)
		switch resp.StatusCode {
		case http.StatusOK:
			okFrom[resp.Header.Get(serve.HeaderServedBy)]++
		case http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			// typed shed/unavailable: allowed during re-route
		default:
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("request %d: status %d (%s)", i, resp.StatusCode, body)
		}
		resp.Body.Close()
		time.Sleep(10 * time.Millisecond)
	}
	if len(okFrom) == 0 {
		t.Fatal("no successful responses after owner death")
	}
	if n := okFrom[owner.id]; n > 0 {
		t.Fatalf("dead owner %s answered %d requests", owner.id, n)
	}

	// Routing has settled: the owner is marked down and requests succeed.
	waitUntil(t, 2*time.Second, "owner marked down", func() bool {
		n, d := b.cl.Route(name)
		return (d == cluster.RouteProxy && n.ID != owner.id) || d == cluster.RouteFallback
	})
	resp := doReq(t, http.MethodPost, b.hs.URL+"/v1/models/"+name+"/predict",
		`{"features":[0.1,0.2,0.3]}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("steady state after re-route: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestClusterLoopGuard: a request that already hopped once is never
// proxied again, even when the receiving node's ring view says another
// node owns the model — stale views degrade to local serving, not to
// proxy cycles.
func TestClusterLoopGuard(t *testing.T) {
	nodes := newFleet(t, 3)
	b := nodes[1]
	name := modelNotOwnedBy(t, b.cl, b.id)
	if _, err := nodes[0].reg.AddReady(e2eSpec(name), trainPipeline(t, 1), time.Now()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "B adopting "+name, func() bool {
		_, err := b.reg.Lookup(name)
		return err == nil
	})

	// Forge a forwarded request at B for a model B does not own: B must
	// serve it locally (one hop max), not proxy onward.
	resp := doReq(t, http.MethodPost, b.hs.URL+"/v1/models/"+name+"/predict",
		`{"features":[0.5,-0.2,1.0]}`, map[string]string{serve.HeaderForwardedBy: "node-x"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(serve.HeaderServedBy); got != b.id {
		t.Fatalf("X-Served-By = %q; the loop guard must pin serving to B", got)
	}
}
