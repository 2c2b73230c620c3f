// The cluster plane of the serving layer: request-id minting and
// propagation, and the reverse proxy that routes model-scoped requests
// to the consistent-hash owner of the model. A request entering any node
// is served correctly: locally when this node owns the model (or the
// fleet is degenerate), by one proxy hop to the owner otherwise, and by
// local fallback from the synced registry when every owner is down.
package serve

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"nfvxai/internal/cluster"
)

// Version identifies the build in /healthz and /readyz replies so
// operators can tell nodes apart behind a load balancer; release builds
// override it via -ldflags "-X nfvxai/internal/serve.Version=v1.2.3".
var Version = "dev"

// Cluster routing headers.
const (
	// HeaderRequestID carries the request id: minted at the first node a
	// request touches, reused verbatim across proxy hops, echoed on
	// every response and embedded in error bodies — the key that
	// stitches one request's trace together across the fleet.
	HeaderRequestID = "X-Request-Id"
	// HeaderForwardedBy marks a proxied request with the routing node's
	// id. Its presence is the loop guard: a node never re-proxies a
	// request that already took its one hop, so a stale or disagreeing
	// ring view degrades to local serving, never a proxy cycle.
	HeaderForwardedBy = "X-Forwarded-By"
	// HeaderServedBy names the node whose registry actually answered.
	HeaderServedBy = "X-Served-By"
)

// newRequestID mints a 16-hex-char request id. crypto/rand keeps ids
// collision-resistant across nodes with no coordination or shared seed.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "rid-unavailable" // crypto/rand failure: trace ids degrade, serving does not
	}
	return hex.EncodeToString(b[:])
}

// proxyClient lazily builds the HTTP client used for owner hops: a tight
// dial timeout so a dead owner fails fast into local fallback, but no
// overall timeout — explanation requests legitimately run long and are
// already bounded end-to-end by the owner's budget ladder and the
// client's own context.
func (s *Server) proxyClient() *http.Client {
	s.proxyOnce.Do(func() {
		s.proxy = &http.Client{
			Transport: &http.Transport{
				DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     30 * time.Second,
			},
		}
	})
	return s.proxy
}

// hopByHopHeaders are not forwarded across the proxy hop.
var hopByHopHeaders = []string{"Connection", "Keep-Alive", "Transfer-Encoding", "Upgrade", "Te", "Trailer", "Proxy-Connection"}

// proxyToOwner routes a model-scoped request to its ring owner when that
// owner is another, live node. It returns true when it fully handled the
// request (proxied a response through, or wrote an error); false means
// the caller should serve locally — because this node owns the model,
// the cluster is not configured, the request already hopped once, or
// every remote owner is down (fallback: the sync loop keeps every node
// able to serve every model, one interval stale at worst).
func (s *Server) proxyToOwner(w http.ResponseWriter, r *http.Request, name, action string) bool {
	c := s.ring
	if c == nil || name == "" {
		return false
	}
	if action == "stream" {
		// SSE streams are held open for minutes; proxying would pin a
		// connection per watcher through two nodes. Serve the synced
		// local pipeline instead.
		return false
	}
	if r.Header.Get(HeaderForwardedBy) != "" {
		return false // one hop max: the first router's decision stands
	}
	target, decision := c.Route(name)
	if decision != cluster.RouteProxy {
		if decision == cluster.RouteFallback {
			log.Printf("cluster: all owners of %q down, serving locally (rid=%s)", name, r.Header.Get(HeaderRequestID))
		}
		return false
	}

	// Buffer the body so it can be replayed into the local handler if
	// the hop fails at the transport level.
	body, err := readBody(r)
	if err != nil {
		writeErr(w, err)
		return true
	}

	out, err := http.NewRequestWithContext(r.Context(), r.Method, target.URL+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusBadGateway, "proxy to %s: %v", target.ID, err)
		return true
	}
	out.Header = r.Header.Clone()
	for _, h := range hopByHopHeaders {
		out.Header.Del(h)
	}
	out.Header.Set(HeaderForwardedBy, s.NodeID)

	resp, err := s.proxyClient().Do(out)
	if err != nil {
		// Transport-level failure: the owner is unreachable. Demote it
		// immediately (the probe loop would take DownAfter intervals to
		// notice) and serve from the local synced registry.
		c.ReportFailure(target.ID, err)
		log.Printf("cluster: proxy %s %s -> %s failed: %v; falling back to local (rid=%s)",
			r.Method, r.URL.Path, target.ID, err, r.Header.Get(HeaderRequestID))
		r.Body = io.NopCloser(bytes.NewReader(body))
		return false
	}
	defer resp.Body.Close()

	h := w.Header()
	for k, vv := range resp.Header {
		h[k] = vv // includes the owner's X-Served-By, overwriting ours
	}
	for _, hh := range hopByHopHeaders {
		h.Del(hh)
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		log.Printf("cluster: proxy %s %s -> %s: response copy: %v (rid=%s)",
			r.Method, r.URL.Path, target.ID, err, r.Header.Get(HeaderRequestID))
	}
	return true
}
