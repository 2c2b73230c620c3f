// The experiments API: POST /v1/experiments submits a declarative
// scenario×model×method sweep (internal/experiment) that executes on the
// jobs infrastructure — same 202/progress/cancellation lifecycle as any
// other job — and, when the registry has a store attached, persists its
// result matrix so the sweep survives the process. GET /v1/experiments
// and GET /v1/experiments/{id} read live jobs first and fall back to
// persisted matrices, so results from before a restart stay readable.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"nfvxai/internal/core"
	"nfvxai/internal/experiment"
)

// JobExperiment is the job kind experiments run under. It is submitted
// via POST /v1/experiments, not the model-scoped jobs endpoint (an
// experiment spans many models).
const JobExperiment = "experiment"

// ExperimentInfo is one experiment as served by the API: the job
// lifecycle fields when live, or a synthesized done-state for matrices
// restored from the store after a restart.
type ExperimentInfo struct {
	ID       string  `json:"id"`
	Name     string  `json:"name,omitempty"`
	Status   string  `json:"status"`
	Progress float64 `json:"progress"`
	Error    string  `json:"error,omitempty"`
	// Persisted marks results served from the store rather than the live
	// job table.
	Persisted bool `json:"persisted,omitempty"`
	// Result is the experiment.Matrix, present once done.
	Result any `json:"result,omitempty"`
}

// ExperimentListResponse is the GET /v1/experiments reply.
type ExperimentListResponse struct {
	Experiments []ExperimentInfo `json:"experiments"`
}

func (s *Server) handleCreateExperiment(w http.ResponseWriter, r *http.Request) {
	var sp experiment.Spec
	if err := readJSON(r, &sp, true); err != nil {
		writeErr(w, err)
		return
	}
	sp = sp.WithDefaults()
	if err := sp.Validate(s.reg.Scenarios); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The runner needs its own id (the store key) before it starts; the
	// buffered channel hands it over without racing submit's goroutine.
	idCh := make(chan string, 1)
	snap, err := s.jobs.submit("", JobExperiment, JobParams{}, nil, s.experimentRunner(sp, idCh))
	if err != nil {
		writeErr(w, err)
		return
	}
	idCh <- snap.ID
	writeJSON(w, http.StatusAccepted, ExperimentInfo{
		ID:       snap.ID,
		Name:     sp.Name,
		Status:   snap.Status,
		Progress: snap.Progress,
	})
}

// experimentRunner adapts one sweep to the jobRunner contract. The
// pipeline argument is unused: experiments train their own pipelines per
// plan unit.
func (s *Server) experimentRunner(sp experiment.Spec, idCh <-chan string) jobRunner {
	return func(ctx context.Context, _ *core.Pipeline, _ JobParams, progress func(float64)) (any, error) {
		var id string
		select {
		case id = <-idCh:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		runner := experiment.Runner{Scenarios: s.reg.Scenarios}
		m, err := runner.Run(ctx, sp, progress)
		if err != nil {
			return nil, err
		}
		// Persist the matrix when a store is attached: the whole point of
		// the sweep is an artifact that outlives the process. A persist
		// failure fails the job loudly rather than silently dropping the
		// durable copy.
		if st := s.reg.StoreBackend(); st != nil {
			data, err := json.Marshal(m)
			if err != nil {
				return nil, fmt.Errorf("experiment: encode matrix: %w", err)
			}
			if err := st.PutExperiment(id, data); err != nil {
				return nil, fmt.Errorf("experiment: persist matrix: %w", err)
			}
		}
		return m, nil
	}
}

func (s *Server) handleListExperiments(w http.ResponseWriter, _ *http.Request) {
	resp := ExperimentListResponse{Experiments: []ExperimentInfo{}}
	seen := map[string]bool{}
	for _, j := range s.jobs.list("") {
		if j.Kind != JobExperiment {
			continue
		}
		seen[j.ID] = true
		resp.Experiments = append(resp.Experiments, ExperimentInfo{
			ID: j.ID, Status: j.Status, Progress: j.Progress, Error: j.Error,
		})
	}
	if st := s.reg.StoreBackend(); st != nil {
		ids, err := st.ListExperiments()
		if err == nil {
			for _, id := range ids {
				if seen[id] {
					continue
				}
				resp.Experiments = append(resp.Experiments, ExperimentInfo{
					ID: id, Status: "done", Progress: 1, Persisted: true,
				})
			}
		}
	}
	sort.Slice(resp.Experiments, func(i, j int) bool { return resp.Experiments[i].ID < resp.Experiments[j].ID })
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGetExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if j, ok := s.jobs.get(id); ok && j.Kind == JobExperiment {
		writeJSON(w, http.StatusOK, ExperimentInfo{
			ID: j.ID, Status: j.Status, Progress: j.Progress, Error: j.Error, Result: j.Result,
		})
		return
	}
	st := s.reg.StoreBackend()
	if st == nil {
		writeError(w, http.StatusNotFound, "experiment %q not found", id)
		return
	}
	// A matrix missing from the store is a 404; an unreachable store a 503.
	data, err := st.GetExperiment(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ExperimentInfo{
		ID: id, Status: "done", Progress: 1, Persisted: true, Result: json.RawMessage(data),
	})
}
