package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nfvxai/internal/core"
	"nfvxai/internal/serve"
	"nfvxai/internal/xai"
	"nfvxai/internal/xai/xcache"
)

// session is one workload set up on one serving stack.
type session struct {
	w         *workload
	seed      int64
	conns     int
	refs      []*core.Pipeline // oracle references; refs[0] is served at start
	artifacts [][]byte         // saved refs, decoded afresh for every hot swap
	plan      *plan
	st        *stack
	swaps     int // hot swaps so far; touched only by the (sequential) swappers

	mu      sync.Mutex // guards plan.next and checked
	checked []checkedReply

	tally   *tally // the current phase's X-Cache tallies
	traced  bool   // record client spans (set between phases)
	bytes   atomic.Int64
	replies atomic.Int64
}

type checkedReply struct {
	rq   request
	body []byte
}

// setup trains the workload's models, boots the stack and warms it: the
// hot-cached warm-up fills the cache with the hot set, and every warm-up
// loads the explainer and opens the keep-alive connections.
func setup(w *workload, seed int64, conns int) (*session, error) {
	refs, err := w.train()
	if err != nil {
		return nil, err
	}
	s := &session{w: w, seed: seed, conns: conns, refs: refs, plan: w.newPlan(refs, seed)}
	if w.swapEvery > 0 {
		for _, p := range refs {
			data, err := p.Save()
			if err != nil {
				return nil, err
			}
			s.artifacts = append(s.artifacts, data)
		}
	}
	s.st, err = startStack(w.spec(0), refs[0], w.cacheBytes, conns)
	if err != nil {
		return nil, err
	}
	warm := s.plan.warm
	res := openLoop(make([]time.Duration, len(warm)), conns, func(i int) error {
		_, err := s.st.post(warm[i].body, false, "")
		return err
	})
	for _, r := range res {
		if r.Err != nil {
			s.st.close()
			return nil, fmt.Errorf("warm-up: %w", r.Err)
		}
	}
	return s, nil
}

// tally counts how the cache served a phase's requests, from the X-Cache
// header (single explains) or the reply's cache block (batches).
type tally struct {
	hits, misses, coalesced atomic.Int64
}

func (t *tally) add(outcome string) error {
	switch outcome {
	case "hit":
		t.hits.Add(1)
	case "miss":
		t.misses.Add(1)
	case "coalesced":
		t.coalesced.Add(1)
	default:
		return fmt.Errorf("unexpected X-Cache %q", outcome)
	}
	return nil
}

// agrees checks the tallies against the /v1/cachez delta of the phase.
// The cache counts one miss per computation and one hit or coalesced per
// other lookup; a batch item that missed the batch's first probe but found
// the entry by the time it ran reports coalesced while the cache counts a
// hit, so hits and coalesced are compared as a sum.
func (t *tally) agrees(before, after xcache.Stats) error {
	dm := after.Misses - before.Misses
	dh := after.Hits - before.Hits + after.Coalesced - before.Coalesced
	m, h := t.misses.Load(), t.hits.Load()+t.coalesced.Load()
	if dm != m || dh != h {
		return fmt.Errorf("X-Cache tallies (miss %d, hit+coalesced %d) disagree with /v1/cachez delta (miss %d, hit+coalesced %d)", m, h, dm, dh)
	}
	return nil
}

// do sends one request and books its reply.
func (s *session) do(rq request, id string) error {
	var t0 time.Time
	if id != "" {
		t0 = time.Now()
	}
	r, err := s.st.post(rq.body, rq.check || s.plan.batch, id)
	if id != "" {
		s.st.spans.add(span{ID: id, Layer: "client", Start: t0.UnixNano(), End: time.Now().UnixNano()})
	}
	if err != nil {
		return err
	}
	s.bytes.Add(r.size)
	s.replies.Add(1)
	if s.plan.batch {
		var b struct {
			Count  int                   `json:"count"`
			Failed int                   `json:"failed"`
			Cache  *core.BatchCacheStats `json:"cache"`
		}
		if err := json.Unmarshal(r.body, &b); err != nil {
			return fmt.Errorf("batch reply: %w", err)
		}
		if b.Count != len(rq.rows) || b.Failed != 0 || b.Cache == nil {
			return fmt.Errorf("batch reply: count %d failed %d cache %v", b.Count, b.Failed, b.Cache != nil)
		}
		s.tally.hits.Add(int64(b.Cache.Hits))
		s.tally.misses.Add(int64(b.Cache.Misses))
		s.tally.coalesced.Add(int64(b.Cache.Coalesced))
	} else if err := s.tally.add(r.cache); err != nil {
		return err
	}
	if rq.check {
		s.mu.Lock()
		s.checked = append(s.checked, checkedReply{rq: rq, body: r.body})
		s.mu.Unlock()
	}
	return nil
}

func (s *session) nextRequest() request {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plan.next()
}

// phase is what one measured phase reports.
type phase struct {
	attempted, failed int
	latencies         []float64         // open loop: ms from due time, in due order; failures are +Inf
	late              []float64         // open loop: ms the generator sent late
	done              [][]time.Duration // closed loop: per-worker completion offsets of the successes
	before, after     xcache.Stats
	tallyErr          error
}

// openPhase sends rate×d arrivals on the workload's schedule (the count
// is fixed by the workload and d, so the tail percentile is too). label distinguishes
// the phases of one run in arrival seeds and span ids.
func (s *session) openPhase(d time.Duration, label int64) (phase, error) {
	n := int(math.Round(s.w.rate * d.Seconds()))
	due := s.w.schedule(streamSeed(s.seed, seedArrivals+label), s.w.rate, n)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = s.nextRequest()
	}
	var ph phase
	err := s.measure(&ph, func() {
		res := openLoop(due, s.conns, func(i int) error {
			id := ""
			if s.traced {
				id = strconv.Itoa(i)
			}
			return s.do(reqs[i], id)
		})
		for _, r := range res {
			lat := r.Latency.Seconds() * 1e3
			if r.Err != nil {
				ph.failed++
				lat = math.Inf(1)
			}
			ph.latencies = append(ph.latencies, lat)
			ph.late = append(ph.late, r.Late.Seconds()*1e3)
		}
		ph.attempted = n
	})
	return ph, err
}

// closedPhase runs conns clients back to back for d.
func (s *session) closedPhase(d time.Duration) (phase, error) {
	var ph phase
	err := s.measure(&ph, func() {
		ph.attempted, ph.failed, ph.done = closedLoop(d, s.conns, func(int) error {
			return s.do(s.nextRequest(), "")
		})
	})
	return ph, err
}

// measure runs one phase between two /v1/cachez reads, with the
// workload's hot swaps going on in the background, and checks the
// phase's X-Cache tallies against the cachez delta.
func (s *session) measure(ph *phase, run func()) error {
	// Start every phase from a collected heap, so that garbage left by
	// training and the earlier phase does not decide when this phase's
	// collections run.
	runtime.GC()
	var err error
	if ph.before, err = s.st.cachez(); err != nil {
		return err
	}
	s.tally = &tally{}
	sw := s.startSwapper()
	run()
	if err := sw.halt(); err != nil {
		return fmt.Errorf("hot swap: %w", err)
	}
	if ph.after, err = s.st.cachez(); err != nil {
		return err
	}
	ph.tallyErr = s.tally.agrees(ph.before, ph.after)
	return nil
}

// swapper hot-swaps the served model every workload.swapEvery, each time
// installing a freshly decoded copy of the other artifact, the way a
// retrain lands through Registry.Swap.
type swapper struct {
	stop, done chan struct{}
	err        error
}

func (s *session) startSwapper() *swapper {
	sw := &swapper{stop: make(chan struct{}), done: make(chan struct{})}
	if s.w.swapEvery <= 0 {
		close(sw.done)
		return sw
	}
	go func() {
		defer close(sw.done)
		t := time.NewTicker(s.w.swapEvery)
		defer t.Stop()
		for {
			select {
			case <-sw.stop:
				return
			case <-t.C:
			}
			s.swaps++
			p, err := core.LoadPipeline(s.artifacts[s.swaps%len(s.artifacts)])
			if err == nil {
				_, err = s.st.reg.Swap(s.st.name, p, time.Now())
			}
			if err != nil {
				sw.err = err
				return
			}
		}
	}()
	return sw
}

func (sw *swapper) halt() error {
	close(sw.stop)
	<-sw.done
	return sw.err
}

// topK is the number of ranked contributions an explain reply carries
// when the request names none (the API default).
const topK = 5

// verify re-computes every sampled reply in process, uncached
// (Pipeline.ExplainCached with noCache), and compares prediction, base,
// method and the top-k (feature, phi) pairs bit for bit. A batch-churn
// reply may match either artifact, since a swap can land mid-request. It
// returns the number of replies checked and how many mismatched.
func (s *session) verify() (checked, bad int, err error) {
	type key struct{ ref, row int }
	memo := map[key]xai.Attribution{}
	names := map[key]string{}
	match := func(got serve.ExplainResponse, row int) (bool, error) {
		for i, ref := range s.refs {
			k := key{i, row}
			attr, ok := memo[k]
			if !ok {
				a, m, _, err := ref.ExplainCached(context.Background(), s.plan.method, xai.Options{}, s.plan.pool[row], true)
				if err != nil {
					return false, err
				}
				attr, memo[k], names[k] = a, a, m
			}
			if sameExplanation(got, attr, names[k], ref.Train.Names) {
				return true, nil
			}
		}
		return false, nil
	}
	for _, c := range s.checked {
		ok := true
		if s.plan.batch {
			var resp serve.BatchExplainResponse
			if err := json.Unmarshal(c.body, &resp); err != nil {
				return checked, bad, err
			}
			if len(resp.Explanations) != len(c.rq.rows) {
				ok = false
			}
			for k := 0; ok && k < len(c.rq.rows); k++ {
				if ok, err = match(resp.Explanations[k], c.rq.rows[k]); err != nil {
					return checked, bad, err
				}
			}
		} else {
			var resp serve.ExplainResponse
			if err := json.Unmarshal(c.body, &resp); err != nil {
				return checked, bad, err
			}
			if ok, err = match(resp, c.rq.rows[0]); err != nil {
				return checked, bad, err
			}
		}
		checked++
		if !ok {
			bad++
		}
	}
	return checked, bad, nil
}

// sameExplanation compares a served explanation with a reference
// attribution exactly (JSON float64 round-trips bit for bit).
func sameExplanation(got serve.ExplainResponse, want xai.Attribution, method string, names []string) bool {
	if got.Prediction != want.Value || got.Base != want.Base || got.Method != method {
		return false
	}
	top := want.TopK(topK)
	if len(got.Contributions) != len(top) {
		return false
	}
	for i, j := range top {
		name := fmt.Sprintf("f%d", j)
		if j < len(names) {
			name = names[j]
		}
		if c := got.Contributions[i]; c.Feature != name || c.Phi != want.Phi[j] {
			return false
		}
	}
	return true
}

var errIncorrect = errors.New("correctness check failed")
