// The health pair: GET /healthz is the cheap liveness + traffic-gate
// summary (unchanged contract: 503 exactly when the default model is not
// servable), and GET /readyz is the operator's detail view — per-model
// state including degradation while a drift-triggered retrain is in
// flight, admission pressure, retrain counts and last hot-swap times, and
// the artifact store's fault-tolerance state (retry/breaker health when
// the store's backend is a registry.RetryBlob).
package serve

import (
	"net/http"
	"time"

	"nfvxai/internal/cluster"
	"nfvxai/internal/registry"
)

// Model health states, coarsest first. "ready" means serving normally;
// "degraded" means serving but impaired (a retrain is replacing the
// pipeline, or the model was restored without its training split);
// "shedding" means admission control rejected load within the last few
// seconds; "training"/"failed" mirror the registry lifecycle.
const (
	StateReady    = "ready"
	StateDegraded = "degraded"
	StateShedding = "shedding"
	StateTraining = "training"
	StateFailed   = "failed"
)

// ModelHealth is one model's entry in the /readyz reply.
type ModelHealth struct {
	Name  string `json:"name"`
	State string `json:"state"`
	// Retrains and LastSwap track drift-triggered hot-swaps: LastSwap is
	// the latest time a (re)trained pipeline went live.
	Retrains int       `json:"retrains,omitempty"`
	LastSwap time.Time `json:"last_swap"`
	// Retraining is true while a drift-triggered retrain is in flight.
	Retraining bool `json:"retraining,omitempty"`
	// Admission pressure: current in-flight work, queued waiters, and
	// total requests shed since start.
	Inflight int    `json:"inflight,omitempty"`
	Waiting  int    `json:"waiting,omitempty"`
	Shed     uint64 `json:"shed,omitempty"`
	// Cache is this model's slice of the explanation result cache —
	// hit/miss/coalesced/evicted counters keyed by its artifact digest
	// (cachez.go); absent until the artifact first touches the cache.
	Cache *ModelCacheHealth `json:"cache,omitempty"`
}

// ReadyResponse is the GET /readyz reply.
type ReadyResponse struct {
	// Status is "ok" when the default model is servable and the store (if
	// any) is not tripped open; else "degraded". The HTTP status is 503
	// only when the default model cannot serve — store trouble degrades
	// the report but never gates traffic, because serving does not need
	// the store.
	Status  string        `json:"status"`
	Default string        `json:"default,omitempty"`
	Models  []ModelHealth `json:"models"`
	// Store is the artifact store's fault-tolerance state when the
	// registry's store sits over a registry.RetryBlob; absent for bare or
	// missing stores.
	Store *registry.StoreHealth `json:"store,omitempty"`
	// NodeID and Version identify the node and build behind a load
	// balancer; Cluster is the fleet view when this node is clustered.
	NodeID  string         `json:"node_id,omitempty"`
	Version string         `json:"version,omitempty"`
	Cluster *ClusterHealth `json:"cluster,omitempty"`
}

// ClusterHealth is the fleet view a clustered node reports on /healthz
// and /readyz: this node's ring role, every peer's liveness, who owns
// which model, and how far the sync loop lags the shared store.
type ClusterHealth struct {
	NodeID      string `json:"node_id"`
	Replication int    `json:"replication"`
	// Peers is the liveness view of every member (self included).
	Peers []cluster.PeerStatus `json:"peers"`
	// Owns lists the locally registered models this node is a ring owner
	// of; Owners maps every local model to its owner node ids, primary
	// first.
	Owns   []string            `json:"owns,omitempty"`
	Owners map[string][]string `json:"owners,omitempty"`
	// MembersFileError surfaces a failing members-file reload.
	MembersFileError string `json:"members_file_error,omitempty"`
	// Sync is the manifest sync loop's lag and counters, when running.
	Sync *cluster.SyncStatus `json:"sync,omitempty"`
}

// clusterHealth assembles the ClusterHealth block (nil when the server
// is not clustered).
func (s *Server) clusterHealth() *ClusterHealth {
	c := s.ring
	if c == nil {
		return nil
	}
	self := c.Self()
	ch := &ClusterHealth{
		NodeID:           self.ID,
		Replication:      c.Replication(),
		Peers:            c.Peers(),
		MembersFileError: c.FileError(),
	}
	names := make([]string, 0, s.reg.Len())
	for _, e := range s.reg.List() {
		names = append(names, e.Spec.Name)
	}
	ch.Owners = c.OwnersFor(names)
	for _, name := range names {
		for _, id := range ch.Owners[name] {
			if id == self.ID {
				ch.Owns = append(ch.Owns, name)
				break
			}
		}
	}
	if s.syncer != nil {
		st := s.syncer.Status()
		ch.Sync = &st
	}
	return ch
}

// retrainingModel reports whether any attached feed is retraining name.
func (s *Server) retrainingModel(name string) bool {
	s.attachMu.Lock()
	defer s.attachMu.Unlock()
	for _, atts := range s.attachments {
		for _, att := range atts {
			if att.model == name && att.retraining.Load() {
				return true
			}
		}
	}
	return false
}

// modelState derives one model's health state from the registry
// lifecycle, the retrain-in-flight flag, and recent admission shedding.
func (s *Server) modelState(e registry.Entry) string {
	switch e.Status {
	case registry.StatusTraining:
		return StateTraining
	case registry.StatusFailed:
		return StateFailed
	}
	if s.retrainingModel(e.Spec.Name) {
		return StateDegraded
	}
	if s.ensureAdmit().shedding(e.Spec.Name) {
		return StateShedding
	}
	return StateReady
}

// storeHealth returns the store's health snapshot when instrumented.
func (s *Server) storeHealth() *registry.StoreHealth {
	if sh, ok := s.reg.StoreHealth(); ok {
		return &sh
	}
	return nil
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	resp := ReadyResponse{
		Status: "ok", Default: s.reg.DefaultName(),
		NodeID: s.NodeID, Version: Version, Cluster: s.clusterHealth(),
	}
	adm := s.ensureAdmit()
	defaultServable := false
	for _, e := range s.reg.List() {
		mh := ModelHealth{
			Name:       e.Spec.Name,
			State:      s.modelState(e),
			Retrains:   e.Retrains,
			LastSwap:   e.ReadyAt,
			Retraining: s.retrainingModel(e.Spec.Name),
		}
		mh.Inflight, mh.Waiting, mh.Shed = adm.snapshot(e.Spec.Name)
		mh.Cache = modelCacheHealth(s.reg.ExplainCache(), e.Pipeline)
		resp.Models = append(resp.Models, mh)
		if e.Spec.Name == resp.Default && e.Status == registry.StatusReady {
			defaultServable = true
			if mh.State != StateReady {
				resp.Status = "degraded"
			}
		}
	}
	resp.Store = s.storeHealth()
	if resp.Store != nil && resp.Store.State == registry.StoreStateOpen {
		resp.Status = "degraded"
	}
	status := http.StatusOK
	if !defaultServable {
		resp.Status = "degraded"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}
