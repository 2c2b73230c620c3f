package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nfvxai/internal/core"
	"nfvxai/internal/registry"
	"nfvxai/internal/serve"
	"nfvxai/internal/xai/xcache"
)

// stack is one in-process explaind serving stack, assembled the way
// cmd/explaind assembles it: a registry with an explanation result cache,
// the v1 API server with default admission, an http.Server on a loopback
// port, and a client that holds at most `conns` keep-alive connections.
type stack struct {
	reg    *registry.Registry
	api    *serve.Server
	hs     *http.Server
	served chan error
	spans  *spanRecorder
	client *http.Client
	base   string
	name   string // served model
}

func startStack(sp registry.Spec, p *core.Pipeline, cacheBytes int64, conns int) (*stack, error) {
	reg := registry.New()
	reg.UseExplainCache(xcache.New(xcache.Config{MaxBytes: cacheBytes}))
	name, err := reg.AddReady(sp, p, time.Now())
	if err != nil {
		return nil, err
	}
	api := serve.NewServer(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		api.Close()
		return nil, err
	}
	s := &stack{
		reg:    reg,
		api:    api,
		served: make(chan error, 1),
		spans:  &spanRecorder{next: api},
		base:   "http://" + ln.Addr().String(),
		name:   name,
	}
	s.hs = &http.Server{Handler: s.spans, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 120 * time.Second}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
	return s, nil
}

// close stops the listener and waits for the serve loop, then closes the
// API server's planes and the client's idle connections.
func (s *stack) close() {
	_ = s.hs.Close() // the only error is from closing the listener, which is going away either way
	<-s.served
	s.api.Close()
	s.client.CloseIdleConnections()
}

func (s *stack) explainURL() string { return s.base + "/v1/models/" + s.name + "/explain" }

// reply is what the load generator keeps of one response.
type reply struct {
	cache string // X-Cache header
	size  int64
	body  []byte // only when requested
}

// post sends one explain request. A transport error or a non-2xx status
// is an error. reqID, when set, becomes the X-Request-Id that ties the
// client span to the server span.
func (s *stack) post(body []byte, keepBody bool, reqID string) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, s.explainURL(), bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	r := reply{cache: resp.Header.Get(serve.HeaderCache)}
	if keepBody || resp.StatusCode/100 != 2 {
		r.body, err = io.ReadAll(resp.Body)
		r.size = int64(len(r.body))
	} else {
		r.size, err = io.Copy(io.Discard, resp.Body)
	}
	if err != nil {
		return r, err
	}
	if resp.StatusCode/100 != 2 {
		return r, fmt.Errorf("explain: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(r.body))
	}
	return r, nil
}

// cachez reads the global result-cache counters over the API.
func (s *stack) cachez() (xcache.Stats, error) {
	resp, err := s.client.Get(s.base + "/v1/cachez")
	if err != nil {
		return xcache.Stats{}, err
	}
	defer resp.Body.Close()
	var cz serve.CachezResponse
	if err := json.NewDecoder(resp.Body).Decode(&cz); err != nil {
		return xcache.Stats{}, fmt.Errorf("cachez: %w", err)
	}
	if !cz.Enabled {
		return xcache.Stats{}, errors.New("cachez: result cache not enabled")
	}
	return cz.Global, nil
}

// span is one timed interval of a traced request; Layer is "client" (the
// load generator's round trip) or "serve" (the API handler).
type span struct {
	ID    string `json:"id"`
	Layer string `json:"layer"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// spanRecorder wraps the API handler. While on, it records a serve span
// per request, keyed by X-Request-Id; while off it only forwards.
type spanRecorder struct {
	next http.Handler
	on   atomic.Bool
	mu   sync.Mutex
	log  []span
}

func (t *spanRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.next.ServeHTTP(w, r)
	t.add(span{ID: r.Header.Get("X-Request-Id"), Layer: "serve", Start: start.UnixNano(), End: time.Now().UnixNano()})
}

func (t *spanRecorder) add(s span) {
	t.mu.Lock()
	t.log = append(t.log, s)
	t.mu.Unlock()
}

func (t *spanRecorder) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.log
	t.log = nil
	return out
}
