// Cluster: boot a three-node serving fleet in-process over one shared
// artifact store, train a model through node A's HTTP API, watch every
// node adopt it within a sync interval, route a request through a
// non-owner, then kill the owner and watch traffic re-route.
//
//	go run ./examples/cluster
//
// The same fleet as separate processes (one shared -store, identical
// membership everywhere):
//
//	PEERS="a=http://h1:8081,b=http://h2:8082,c=http://h3:8083"
//	explaind -addr :8081 -node-id a -peers "$PEERS" -store /shared/models
//	explaind -addr :8082 -node-id b -peers "$PEERS" -store /shared/models
//	explaind -addr :8083 -node-id c -peers "$PEERS" -store /shared/models
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"nfvxai/internal/cluster"
	"nfvxai/internal/registry"
	"nfvxai/internal/serve"
)

// fleetNode is one in-process cluster member: a node booted through
// serve.Open over the shared store directory.
type fleetNode struct {
	id  string
	reg *registry.Registry
	cl  *cluster.Cluster
	hs  *httptest.Server
}

func main() {
	// 1. One shared artifact store — the only thing the nodes have in
	//    common. Models replicate through it, not through the peer links.
	dir, err := os.MkdirTemp("", "nfvxai-cluster-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 2. Boot three nodes as one ring: replication 2, fast probe/sync
	//    intervals for the demo. The listeners exist first, so every node
	//    opens knowing the whole fleet, and each serves once it is wired.
	nodes := make([]*fleetNode, 3)
	members := make([]cluster.Node, len(nodes))
	for i := range nodes {
		hs := httptest.NewUnstartedServer(nil)
		nodes[i] = &fleetNode{id: string(rune('a' + i)), hs: hs}
		members[i] = cluster.Node{ID: nodes[i].id, URL: "http://" + hs.Listener.Addr().String()}
	}
	for _, nd := range nodes {
		st, err := registry.OpenFSStore(dir)
		if err != nil {
			log.Fatal(err)
		}
		node, err := serve.Open(serve.Config{
			Store:        st.Backend(),
			SyncInterval: 300 * time.Millisecond,
			Cluster: cluster.Config{
				Self:          nd.id,
				Nodes:         members,
				Replication:   2,
				ProbeInterval: 200 * time.Millisecond,
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		nd.reg, nd.cl = node.Registry(), node.Cluster()
		nd.hs.Config.Handler = node
		nd.hs.Start()
		defer func(nd *fleetNode) { nd.hs.Close(); node.Close() }(nd)
	}
	a := nodes[0]
	fmt.Printf("fleet up: %s %s %s (replication 2, shared store %s)\n",
		nodes[0].hs.URL, nodes[1].hs.URL, nodes[2].hs.URL, dir)

	// 3. Train a model through node A's API — exactly like any
	//    single-node deployment. Persisting it into the shared store is
	//    what publishes it to the fleet.
	const name = "web/cart/util"
	fmt.Printf("POST %s/v1/models → training %s on node a\n", a.hs.URL, name)
	post(a.hs.URL+"/v1/models", map[string]any{
		"scenario": "web", "model": "cart", "target": "util", "hours": 1,
	})
	waitFor("node a to finish training", func() bool {
		_, err := a.reg.Lookup(name)
		return err == nil
	})

	// 4. Every other node adopts it from the shared manifest within one
	//    sync interval — no peer-to-peer model transfer.
	for _, nd := range nodes[1:] {
		nd := nd
		waitFor("node "+nd.id+" to adopt "+name, func() bool {
			_, err := nd.reg.Lookup(name)
			return err == nil
		})
		fmt.Printf("node %s adopted %s from the store\n", nd.id, name)
	}

	// 5. Ask a node that does NOT own the model: it reverse-proxies to
	//    an owner (one hop); X-Served-By names the node that actually
	//    answered, and the request id survives the hop.
	owned := map[string]bool{}
	for _, o := range a.cl.Owners(name) {
		owned[o.ID] = true
	}
	b := a
	for _, nd := range nodes {
		if !owned[nd.id] {
			b = nd
		}
	}
	fmt.Printf("ring places %s on %v; querying via non-owner %s\n", name, a.cl.Owners(name), b.id)
	sresp, err := http.Get(b.hs.URL + "/v1/models/" + name + "/schema")
	if err != nil {
		log.Fatal(err)
	}
	var schema serve.SchemaResponse
	if err := json.NewDecoder(sresp.Body).Decode(&schema); err != nil {
		log.Fatal(err)
	}
	sresp.Body.Close()
	features := make([]float64, len(schema.Features))
	for i := range features {
		features[i] = 0.3
	}
	body, err := json.Marshal(map[string]any{"features": features})
	if err != nil {
		log.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, b.hs.URL+"/v1/models/"+name+"/predict",
		bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.HeaderRequestID, "walkthrough-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	var pred struct {
		Prediction float64 `json:"prediction"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("predict via node %s → %d, prediction %.3f, served by %q, request id %q\n",
		b.id, resp.StatusCode, pred.Prediction,
		resp.Header.Get(serve.HeaderServedBy), resp.Header.Get(serve.HeaderRequestID))

	// 6. The fleet view: /healthz grows a cluster block with peers,
	//    ownership and sync lag.
	hresp, err := http.Get(a.hs.URL + "/healthz")
	if err != nil {
		log.Fatal(err)
	}
	var health serve.HealthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		log.Fatal(err)
	}
	hresp.Body.Close()
	fmt.Printf("healthz on a: node %s, %d peers", health.Cluster.NodeID, len(health.Cluster.Peers))
	for _, p := range health.Cluster.Peers {
		fmt.Printf(" [%s alive=%v]", p.ID, p.Alive)
	}
	fmt.Printf(", owners[%s]=%v, sync rounds %d\n", name, health.Cluster.Owners[name], health.Cluster.Sync.Rounds)

	// 7. Kill the node the querying node currently routes to. Probes mark it down and
	//    traffic re-routes to the surviving replica (or B's own synced
	//    copy) — requests keep answering.
	target, decision := b.cl.Route(name)
	var victim *fleetNode
	for _, nd := range nodes {
		if nd.id == target.ID {
			victim = nd
		}
	}
	if victim == nil || victim == b {
		victim = nodes[2] // the querier owns the model itself; kill any other member
	}
	fmt.Printf("killing node %s (%s's current route: %s via %s)\n", victim.id, b.id, target.ID, decision)
	victim.hs.CloseClientConnections()
	victim.hs.Close()
	waitFor("node "+b.id+" to mark "+victim.id+" down", func() bool {
		for _, p := range b.cl.Peers() {
			if p.ID == victim.id {
				return !p.Alive
			}
		}
		return false
	})
	resp2, err := http.Post(b.hs.URL+"/v1/models/"+name+"/predict", "application/json",
		bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	resp2.Body.Close()
	fmt.Printf("predict via node %s after the kill → %d, served by %q\n",
		b.id,
		resp2.StatusCode, resp2.Header.Get(serve.HeaderServedBy))
}

func post(url string, body any) {
	buf, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		log.Fatalf("POST %s: %d", url, resp.StatusCode)
	}
}

func waitFor(what string, cond func() bool) {
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	log.Fatalf("timed out waiting for %s", what)
}
