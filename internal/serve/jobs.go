// The explanation-jobs subsystem: expensive global explanations run
// asynchronously with the same lifecycle shape as model training in the
// registry (submit → 202, observe status/progress, result or failure),
// plus cooperative cancellation through context. One store serves every
// model; job ids are process-local and monotonically increasing.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"nfvxai/internal/core"
	"nfvxai/internal/dataset"
	"nfvxai/internal/xai/pdp"
	"nfvxai/internal/xai/surrogate"
)

// Job kinds accepted by POST /v1/models/{name}/jobs.
const (
	JobGlobalImportance = "global-importance"
	JobPDPGrid          = "pdp-grid"
	JobSurrogateTree    = "surrogate-tree"
	JobCleverHansAudit  = "cleverhans-audit"
	// JobRetrain retrains an attached model from its feed's streamed
	// dataset and hot-swaps the result into the registry (feeds.go). It
	// is submitted automatically on drift and manually via the jobs API
	// (params.feed selects the attachment).
	JobRetrain = "retrain"
)

// JobStatus is one job's lifecycle state, mirroring the registry's
// training lifecycle with an explicit cancelled terminal state.
type JobStatus int

const (
	JobPending JobStatus = iota
	JobRunning
	JobDone
	JobFailed
	JobCancelled
)

// String implements fmt.Stringer.
func (s JobStatus) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("JobStatus(%d)", int(s))
	}
}

// JobParams is the typed parameter set shared by the job kinds; each kind
// documents which fields it reads. Unknown keys in the request are a 400.
type JobParams struct {
	// N is how many test instances global-importance aggregates
	// (default 30, matching GET .../importance).
	N int `json:"n,omitempty"`
	// GridSize is the pdp-grid resolution (default 20).
	GridSize int `json:"grid_size,omitempty"`
	// Features restricts pdp-grid to named features (default: all).
	Features []string `json:"features,omitempty"`
	// MaxDepth bounds the surrogate-tree depth (default 4).
	MaxDepth int `json:"max_depth,omitempty"`
	// Strength is the cleverhans-audit injected leak strength (default
	// 0.9). A pointer distinguishes the omitted field from an explicit 0,
	// which is the legitimate clean-control audit.
	Strength *float64 `json:"strength,omitempty"`
	// Seed overrides the pipeline seed for seeded job kinds.
	Seed int64 `json:"seed,omitempty"`
	// Feed selects which attachment a retrain job trains from; it may be
	// omitted when the model is attached to exactly one feed.
	Feed string `json:"feed,omitempty"`
}

// JobRequest is the POST /v1/models/{name}/jobs body.
type JobRequest struct {
	Kind   string          `json:"kind"`
	Params json.RawMessage `json:"params,omitempty"`
}

// JobInfo is one job as served by the API.
type JobInfo struct {
	ID string `json:"id"`
	// Model is empty for jobs that span models (experiments).
	Model  string `json:"model,omitempty"`
	Kind   string `json:"kind"`
	Status string `json:"status"`
	// Progress advances 0 → 1 while the job runs.
	Progress  float64   `json:"progress"`
	Error     string    `json:"error,omitempty"`
	CreatedAt time.Time `json:"created_at"`
	// StartedAt / FinishedAt are the zero time until the transition.
	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at"`
	// Result is the kind-specific payload, present once status is "done".
	Result any `json:"result,omitempty"`
}

// JobListResponse is the GET /v1/jobs reply.
type JobListResponse struct {
	Jobs []JobInfo `json:"jobs"`
}

// job is the mutable record behind JobInfo snapshots; the store mutex
// guards every field.
type job struct {
	id, model, kind string
	params          JobParams
	status          JobStatus
	progress        float64
	result          any
	err             string
	createdAt       time.Time
	startedAt       time.Time
	finishedAt      time.Time
	cancel          context.CancelFunc
}

// maxStoredJobs bounds the job table. When a submission finds it full,
// the oldest *finished* jobs (and their retained results) are evicted to
// make room, so a long-lived process with periodic jobs never wedges;
// 429 is reserved for the pathological case of maxStoredJobs jobs all
// still pending or running.
const maxStoredJobs = 4096

// evictBatch is how many finished jobs one eviction pass removes; a
// batch amortizes the full-table scan across many submissions.
const evictBatch = 64

// errShuttingDown reports a submission racing shutdown: a 503 (fail over
// to another instance), distinct from the 429 errJobTableFull earns
// (back off and retry here).
var errShuttingDown = errors.New("server is shutting down")

// errJobTableFull reports a submission against a table of maxStoredJobs
// unfinished jobs.
var errJobTableFull = errors.New("job table full")

// jobStore is the concurrent-safe job table.
type jobStore struct {
	mu     sync.Mutex
	seq    int
	jobs   map[string]*job
	notify chan<- string
	// running tracks in-flight job goroutines so shutdown can wait for
	// them to finish flushing their artifacts (cancelAllAndWait);
	// closed rejects submissions that race shutdown — a job started
	// after the cancel sweep would be neither cancelled nor waited for.
	running sync.WaitGroup
	closed  bool
}

func newJobStore() *jobStore {
	return &jobStore{jobs: map[string]*job{}}
}

// NotifyJobs routes every finished job's id to ch. Call before
// submitting; sends are blocking, so the channel must be drained.
func (s *Server) NotifyJobs(ch chan<- string) {
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	s.jobs.notify = ch
}

func (st *jobStore) snapshotLocked(j *job) JobInfo {
	return JobInfo{
		ID:         j.id,
		Model:      j.model,
		Kind:       j.kind,
		Status:     j.status.String(),
		Progress:   j.progress,
		Error:      j.err,
		CreatedAt:  j.createdAt,
		StartedAt:  j.startedAt,
		FinishedAt: j.finishedAt,
		Result:     j.result,
	}
}

func (st *jobStore) get(id string) (JobInfo, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return JobInfo{}, false
	}
	return st.snapshotLocked(j), true
}

func (st *jobStore) list(model string) []JobInfo {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]JobInfo, 0, len(st.jobs))
	for _, j := range st.jobs {
		if model == "" || j.model == model {
			out = append(out, st.snapshotLocked(j))
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// evictFinishedLocked removes up to evictBatch of the oldest terminal
// (done/failed/cancelled) jobs. Callers must hold the store mutex.
func (st *jobStore) evictFinishedLocked() {
	type finished struct {
		id string
		at time.Time
	}
	var done []finished
	for id, j := range st.jobs {
		if j.status == JobDone || j.status == JobFailed || j.status == JobCancelled {
			done = append(done, finished{id, j.finishedAt})
		}
	}
	sort.Slice(done, func(i, k int) bool { return done[i].at.Before(done[k].at) })
	if len(done) > evictBatch {
		done = done[:evictBatch]
	}
	for _, f := range done {
		delete(st.jobs, f.id)
	}
}

// jobRunner executes one job kind against a ready pipeline. progress
// receives completion fractions in [0, 1]; implementations return with
// ctx's error once it is cancelled, at the granularity of their work
// units (per explained instance / feature column for the importance and
// pdp kinds; per phase for the monolithic model-training kinds, whose
// fits are not interruptible). A runner that completes under a cancelled
// ctx still lands in status "cancelled", never "done".
type jobRunner func(ctx context.Context, p *core.Pipeline, jp JobParams, progress func(float64)) (any, error)

var jobRunners = map[string]jobRunner{
	JobGlobalImportance: runGlobalImportance,
	JobPDPGrid:          runPDPGrid,
	JobSurrogateTree:    runSurrogateTree,
	JobCleverHansAudit:  runCleverHansAudit,
}

// jobKindNames lists the accepted kinds, sorted, for error messages.
// JobRetrain is appended by hand: it is not in jobRunners because its
// runner closes over server streaming state (feeds.go).
func jobKindNames() []string {
	names := make([]string, 0, len(jobRunners)+1)
	for k := range jobRunners {
		names = append(names, k)
	}
	names = append(names, JobRetrain)
	sort.Strings(names)
	return names
}

// ─── handlers ───────────────────────────────────────────────────────────

func (s *Server) handleCreateJob(w http.ResponseWriter, r *http.Request, name string) {
	p, ok := s.lookup(w, name)
	if !ok {
		return
	}
	var req JobRequest
	if err := readJSON(r, &req, false); err != nil {
		writeErr(w, err)
		return
	}
	var jp JobParams
	if err := decodeStrict(req.Params, &jp); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	run, ok := jobRunners[req.Kind]
	if !ok {
		if req.Kind != JobRetrain {
			writeError(w, http.StatusBadRequest, "unknown job kind %q (accepted: %s)",
				req.Kind, strings.Join(jobKindNames(), ", "))
			return
		}
		// Manual retrain shares the drift-triggered path: resolve the
		// model's feed attachment and claim its in-flight slot.
		att, err := s.findAttachment(name, jp.Feed)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if !att.retraining.CompareAndSwap(false, true) {
			writeError(w, http.StatusConflict, "retrain already in flight for %q", name)
			return
		}
		snap, err := s.jobs.submit(name, req.Kind, jp, p, s.retrainRunner(att))
		if err != nil {
			// No job started, so the runner's defer will never release
			// the in-flight slot the CAS just claimed; release it here or
			// no retrain could ever run again.
			att.retraining.Store(false)
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, snap)
		return
	}

	snap, err := s.jobs.submit(name, req.Kind, jp, p, run)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, snap)
}

// submit registers and starts one job, returning its initial snapshot.
// It fails only when the table is full of unfinished jobs or the store
// is closed for shutdown.
func (st *jobStore) submit(model, kind string, jp JobParams, p *core.Pipeline, run jobRunner) (JobInfo, error) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return JobInfo{}, errShuttingDown
	}
	if len(st.jobs) >= maxStoredJobs {
		st.evictFinishedLocked()
	}
	if len(st.jobs) >= maxStoredJobs {
		st.mu.Unlock()
		return JobInfo{}, fmt.Errorf("%w (%d active jobs)", errJobTableFull, maxStoredJobs)
	}
	st.seq++
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:        fmt.Sprintf("job-%06d", st.seq),
		model:     model,
		kind:      kind,
		params:    jp,
		status:    JobPending,
		createdAt: time.Now(),
		cancel:    cancel,
	}
	st.jobs[j.id] = j
	snap := st.snapshotLocked(j)
	st.running.Add(1)
	st.mu.Unlock()

	go st.run(ctx, j, p, run)
	return snap, nil
}

// cancelAll cancels every job's context — process shutdown. Runners
// observe the cancellation and drive their jobs to "cancelled".
func (st *jobStore) cancelAll() {
	st.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(st.jobs))
	for _, j := range st.jobs {
		cancels = append(cancels, j.cancel)
	}
	st.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
}

// cancelAllAndWait closes the store to new submissions, cancels every
// job and then blocks until every runner goroutine has returned.
// Runners write their artifacts (retrained pipelines, experiment
// matrices) before returning, so once this returns the store holds no
// torn state from in-flight jobs — the ordering guarantee Server.Close
// gives SIGTERM handling. The closed flag is set under the same mutex
// the cancel sweep snapshots under, so a submission either lands before
// the sweep (and is cancelled and waited for) or is rejected.
func (st *jobStore) cancelAllAndWait() {
	st.mu.Lock()
	st.closed = true
	st.mu.Unlock()
	st.cancelAll()
	st.running.Wait()
}

// run executes the job in its own goroutine, driving the lifecycle
// pending → running → done | failed | cancelled. A runner error that is
// (or wraps) the context's cancellation is recorded as cancelled, not
// failed: the operator asked for it.
func (st *jobStore) run(ctx context.Context, j *job, p *core.Pipeline, run jobRunner) {
	st.mu.Lock()
	j.status = JobRunning
	j.startedAt = time.Now()
	st.mu.Unlock()

	result, err := run(ctx, p, j.params, func(f float64) {
		st.mu.Lock()
		if f > j.progress { // progress never moves backwards
			j.progress = f
		}
		st.mu.Unlock()
	})

	st.mu.Lock()
	j.finishedAt = time.Now()
	switch {
	case ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Cancellation wins even when the runner raced to completion: the
		// operator asked for the job to stop, so it must never surface as
		// "done". The partial/expired result is dropped.
		j.status = JobCancelled
		if err != nil {
			j.err = err.Error()
		} else {
			j.err = ctx.Err().Error()
		}
	case err == nil:
		j.status = JobDone
		j.progress = 1
		j.result = result
	default:
		j.status = JobFailed
		j.err = err.Error()
	}
	notify := st.notify
	st.mu.Unlock()
	j.cancel() // release the context's resources
	// The runner has returned and its store writes are flushed: release
	// shutdown waiters before the (possibly slow, test-drained) notify
	// send so cancelAllAndWait never deadlocks on an undrained channel.
	st.running.Done()
	if notify != nil {
		notify <- j.id
	}
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	info, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "job %q not found", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, JobListResponse{Jobs: s.jobs.list("")})
}

func (s *Server) handleListModelJobs(w http.ResponseWriter, _ *http.Request, name string) {
	// The model must exist (404 otherwise); training/failed models can
	// still list their (necessarily empty) job history.
	if _, err := s.reg.Get(name); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, JobListResponse{Jobs: s.jobs.list(name)})
}

// handleDeleteJob cancels a pending/running job via its context; the
// runner observes the cancellation and flips the job to "cancelled".
// Deleting a finished job is a no-op returning its terminal snapshot, so
// cancellation is idempotent.
func (s *Server) handleDeleteJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st := s.jobs
	st.mu.Lock()
	j, ok := st.jobs[id]
	if !ok {
		st.mu.Unlock()
		writeError(w, http.StatusNotFound, "job %q not found", id)
		return
	}
	cancel := j.cancel
	snap := st.snapshotLocked(j)
	st.mu.Unlock()
	cancel()
	writeJSON(w, http.StatusOK, snap)
}

// ─── job runners ────────────────────────────────────────────────────────

// runGlobalImportance computes the cached global |SHAP| + permutation
// profile through the pipeline's batched fan-out path; its result matches
// the synchronous GET .../importance endpoint exactly (same cache).
func runGlobalImportance(ctx context.Context, p *core.Pipeline, jp JobParams, progress func(float64)) (any, error) {
	n := jp.N
	if n <= 0 {
		n = importanceInstances
	}
	shapImp, permImp, err := p.GlobalImportanceProgress(ctx, n, progress)
	if err != nil {
		return nil, err
	}
	return ImportanceResponse{Features: p.Train.Names, Shap: shapImp, Perm: permImp}, nil
}

// PDPCurve is one feature's partial-dependence summary in a pdp-grid
// job result.
type PDPCurve struct {
	Feature          int       `json:"feature"`
	Name             string    `json:"name"`
	Grid             []float64 `json:"grid"`
	Mean             []float64 `json:"mean"`
	Range            float64   `json:"range"`
	MonotoneFraction float64   `json:"monotone_fraction"`
}

// PDPGridResult is the pdp-grid job result.
type PDPGridResult struct {
	Curves []PDPCurve `json:"curves"`
}

// pdpMaxRows caps the rows each curve sweeps; beyond a few hundred the
// marginal mean is stable and the grid cost is pure latency.
const pdpMaxRows = 256

func runPDPGrid(ctx context.Context, p *core.Pipeline, jp JobParams, progress func(float64)) (any, error) {
	rows := p.Test.X
	if len(rows) > pdpMaxRows {
		rows = rows[:pdpMaxRows]
	}
	var feats []int
	if len(jp.Features) > 0 {
		for _, name := range jp.Features {
			j := p.Train.FeatureIndex(name)
			if j < 0 {
				return nil, fmt.Errorf("pdp-grid: %q: %w", name, core.ErrUnknownFeature)
			}
			feats = append(feats, j)
		}
	} else {
		for j := 0; j < p.Train.NumFeatures(); j++ {
			feats = append(feats, j)
		}
	}
	out := PDPGridResult{Curves: make([]PDPCurve, 0, len(feats))}
	for i, j := range feats {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		curve, err := pdp.Compute(p.Model, rows, j, pdp.Config{GridSize: jp.GridSize})
		if err != nil {
			return nil, fmt.Errorf("pdp-grid: feature %d: %w", j, err)
		}
		out.Curves = append(out.Curves, PDPCurve{
			Feature:          j,
			Name:             featureName(p.Train.Names, j),
			Grid:             curve.Grid,
			Mean:             curve.Mean,
			Range:            curve.Range(),
			MonotoneFraction: curve.MonotoneFraction(),
		})
		progress(float64(i+1) / float64(len(feats)))
	}
	return out, nil
}

// SurrogateResult is the surrogate-tree job result.
type SurrogateResult struct {
	FidelityR2 float64 `json:"fidelity_r2"`
	Agreement  float64 `json:"agreement,omitempty"`
	Depth      int     `json:"depth"`
	Leaves     int     `json:"leaves"`
}

func runSurrogateTree(ctx context.Context, p *core.Pipeline, jp JobParams, progress func(float64)) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	progress(0.1)
	res, err := surrogate.Fit(p.Model, p.Train, p.Test, jp.MaxDepth)
	if err != nil {
		return nil, fmt.Errorf("surrogate-tree: %w", err)
	}
	return SurrogateResult{
		FidelityR2: res.FidelityR2,
		Agreement:  res.Agreement,
		Depth:      res.Depth,
		Leaves:     res.Leaves,
	}, nil
}

func runCleverHansAudit(ctx context.Context, p *core.Pipeline, jp JobParams, progress func(float64)) (any, error) {
	strength := 0.9
	if jp.Strength != nil {
		strength = *jp.Strength
	}
	seed := jp.Seed
	if seed == 0 {
		seed = p.Seed
	}
	// Rebuild a full dataset from the pipeline's frozen splits; the audit
	// re-splits (and deep-clones) it before injecting the artifact, so the
	// serving pipeline's rows are never touched.
	ds := &dataset.Dataset{
		Names: append([]string(nil), p.Train.Names...),
		X:     append(append([][]float64(nil), p.Train.X...), p.Test.X...),
		Y:     append(append([]float64(nil), p.Train.Y...), p.Test.Y...),
		Task:  p.Train.Task,
	}
	progress(0.05)
	res, err := core.CleverHansAudit(ctx, p.Kind, ds, strength, seed)
	if err != nil {
		return nil, fmt.Errorf("cleverhans-audit: %w", err)
	}
	return res, nil
}
