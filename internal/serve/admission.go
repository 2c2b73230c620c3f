// Admission control for the model-work endpoints (explain, whatif,
// importance): each model gets a concurrency budget and a bounded wait
// queue. A request that cannot start within the queue's patience — or
// that arrives when the queue itself is full — is shed with
// 503 + Retry-After instead of piling onto a saturated model, so a burst
// degrades into fast, typed rejections rather than collapsing every
// in-flight request's latency. Recent shedding is surfaced as the
// "shedding" state in /healthz and /readyz.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Admission defaults; override via the Server fields before serving.
const (
	// DefaultAdmitQueue bounds how many requests may wait per model.
	DefaultAdmitQueue = 32
	// DefaultAdmitWait bounds how long one queued request may wait.
	DefaultAdmitWait = 2 * time.Second
	// shedWindow is how long after a shed a model reports "shedding".
	shedWindow = 5 * time.Second
)

// errSaturated is the typed load-shed error: the model's concurrency
// budget and wait queue are both full (or the wait timed out).
var errSaturated = errors.New("explain capacity saturated")

// admitState is one model's admission bookkeeping.
type admitState struct {
	sem      chan struct{}
	waiting  atomic.Int32
	inflight atomic.Int32
	shed     atomic.Uint64
	lastShed atomic.Int64 // unix nanos of the most recent load-shed
}

// admission is the per-model semaphore table.
type admission struct {
	capacity int
	queue    int
	wait     time.Duration

	mu  sync.Mutex
	per map[string]*admitState
}

func newAdmission(capacity, queue int, wait time.Duration) *admission {
	if capacity <= 0 {
		capacity = runtime.GOMAXPROCS(0)
	}
	if queue <= 0 {
		queue = DefaultAdmitQueue
	}
	if wait <= 0 {
		wait = DefaultAdmitWait
	}
	return &admission{capacity: capacity, queue: queue, wait: wait, per: map[string]*admitState{}}
}

func (a *admission) state(model string) *admitState {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.per[model]
	if !ok {
		st = &admitState{sem: make(chan struct{}, a.capacity)}
		a.per[model] = st
	}
	return st
}

// acquire admits one unit of model work, waiting in the bounded queue if
// the model is at capacity. It returns a release func on success, else
// an error wrapping errSaturated when shed, or the context's error when
// the caller's request died first.
func (a *admission) acquire(ctx context.Context, model string) (func(), error) {
	st := a.state(model)
	release := func() {
		st.inflight.Add(-1)
		<-st.sem
	}
	select {
	case st.sem <- struct{}{}:
		st.inflight.Add(1)
		return release, nil
	default:
	}
	if int(st.waiting.Load()) >= a.queue {
		return nil, a.shed(st)
	}
	st.waiting.Add(1)
	defer st.waiting.Add(-1)
	timer := time.NewTimer(a.wait)
	defer timer.Stop()
	select {
	case st.sem <- struct{}{}:
		st.inflight.Add(1)
		return release, nil
	case <-timer.C:
		return nil, a.shed(st)
	case <-ctx.Done():
		return nil, fmt.Errorf("request expired while queued: %w", ctx.Err())
	}
}

// shed counts one load-shed against st and returns its error.
func (a *admission) shed(st *admitState) error {
	st.shed.Add(1)
	st.lastShed.Store(time.Now().UnixNano())
	return fmt.Errorf("%w (%d in flight, %d queued); retry", errSaturated, a.capacity, a.queue)
}

// shedding reports whether the model shed load within shedWindow — the
// health signal that tells probes the model is saturated right now.
func (a *admission) shedding(model string) bool {
	a.mu.Lock()
	st, ok := a.per[model]
	a.mu.Unlock()
	if !ok {
		return false
	}
	last := st.lastShed.Load()
	return last != 0 && time.Since(time.Unix(0, last)) < shedWindow
}

// snapshot returns (inflight, waiting, total shed) for health output.
func (a *admission) snapshot(model string) (int, int, uint64) {
	a.mu.Lock()
	st, ok := a.per[model]
	a.mu.Unlock()
	if !ok {
		return 0, 0, 0
	}
	return int(st.inflight.Load()), int(st.waiting.Load()), st.shed.Load()
}

// ensureAdmit lazily builds the server's admission table from its knobs.
func (s *Server) ensureAdmit() *admission {
	s.admitOnce.Do(func() {
		s.adm = newAdmission(s.MaxInflight, s.AdmitQueue, s.AdmitWait)
	})
	return s.adm
}

// admitRequest runs admission for one request, writing the refusal
// itself: the shed's 503, or the 504 of a request whose deadline expired
// while it queued, each with Retry-After set to the queue's patience.
// The returned release must be called when the admitted work finishes.
func (s *Server) admitRequest(w http.ResponseWriter, r *http.Request, model string) (func(), bool) {
	adm := s.ensureAdmit()
	release, err := adm.acquire(r.Context(), model)
	if err != nil {
		w.Header().Set("Retry-After", strconv.Itoa(max(1, int(adm.wait/time.Second))))
		writeErr(w, fmt.Errorf("model %q: %w", model, err))
		return nil, false
	}
	return release, true
}
