// Package feed is the streaming data plane: named live telemetry feeds
// that fan telemetry.Record streams out to subscribers over channels. A
// feed is either driven by the discrete-event simulator — a registered
// scenario's sim.World advanced continuously on a background goroutine,
// throttled so virtual time tracks wall time at a configurable rate — or
// fed externally through Ingest with records in the same wire schema, so
// real infrastructure telemetry can replace the simulator without touching
// anything downstream. Monitors (monitor.go) attach models to feeds for
// online prediction scoring and drift detection (drift.go); the serving
// layer rides the same subscriptions for SSE explanation streams.
package feed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"nfvxai/internal/core"
	"nfvxai/internal/nfv/telemetry"
)

// ErrFeedExists reports an Open for a name already in use.
var ErrFeedExists = errors.New("feed already exists")

// ErrFeedNotFound reports a lookup of an unknown feed.
var ErrFeedNotFound = errors.New("feed not found")

// ErrFeedClosed reports an operation against a closed feed.
var ErrFeedClosed = errors.New("feed closed")

// ErrTooManyFeeds reports an Open against a hub at its Max.
var ErrTooManyFeeds = errors.New("too many feeds")

// Options configures one feed.
type Options struct {
	// Simulate drives the feed from the scenario's simulated world; false
	// makes the feed ingest-only (external records via Ingest).
	Simulate bool `json:"simulate"`
	// Seed perturbs the simulated traffic (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Rate is virtual seconds advanced per wall second (default 60: one
	// virtual minute per second, i.e. a 5 s epoch record every ~83 ms).
	Rate float64 `json:"rate,omitempty"`
	// Buffer is the per-subscriber channel depth (default 256). A slow
	// subscriber drops records rather than stalling the feed.
	Buffer int `json:"buffer,omitempty"`
	// Fault, when set on a simulated feed, injects delivery faults —
	// stalls and burst floods — for resilience testing (chaos suite).
	Fault *Fault `json:"fault,omitempty"`
}

// Fault configures deterministic fault injection on a simulated feed:
// each simulator tick may start a stall (the feed goes silent, then the
// catch-up cap bounds the replay) or a burst (the tick replays the
// maximum catch-up step at once, flooding subscribers). Faults draw from
// their own seeded stream, so a given seed and tick count always injects
// the same fault sequence.
type Fault struct {
	// StallProb is the per-tick probability of starting a stall.
	StallProb float64 `json:"stall_prob,omitempty"`
	// StallTicks is how many ticks a stall silences (default 5).
	StallTicks int `json:"stall_ticks,omitempty"`
	// BurstProb is the per-tick probability of a catch-up burst.
	BurstProb float64 `json:"burst_prob,omitempty"`
}

// MaxRate bounds how fast a simulated feed may run (one virtual day per
// wall second) — the cap on background CPU one POST /v1/feeds can demand.
const MaxRate = 86400.0

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Rate == 0 {
		o.Rate = 60
	}
	if o.Buffer <= 0 {
		o.Buffer = 256
	}
	return o
}

// Stats is a point-in-time snapshot of one feed's throughput counters.
type Stats struct {
	// Records counts everything published (simulated + ingested).
	Records uint64 `json:"records"`
	// Ingested counts externally ingested records.
	Ingested uint64 `json:"ingested"`
	// SimEpochs counts simulator-produced records.
	SimEpochs uint64 `json:"sim_epochs"`
	// Dropped counts per-subscriber deliveries lost to full buffers.
	Dropped uint64 `json:"dropped"`
	// Subscribers is the current subscription count.
	Subscribers int `json:"subscribers"`
	// VirtualSec is how far the simulated world has advanced.
	VirtualSec float64 `json:"virtual_sec"`
	// Stalls and Bursts count injected feed faults (Options.Fault).
	Stalls uint64 `json:"stalls,omitempty"`
	Bursts uint64 `json:"bursts,omitempty"`
}

// subscriber is one fan-out target.
type subscriber struct {
	ch      chan telemetry.Record
	dropped uint64
}

// Feed is one named telemetry stream.
type Feed struct {
	name string
	spec core.ScenarioSpec
	opts Options

	mu        sync.Mutex
	subs      map[int]*subscriber
	nextSub   int
	closed    bool
	records   uint64
	ingested  uint64
	simEpochs uint64
	dropped   uint64
	virtual   float64
	stalls    uint64
	bursts    uint64
	simErr    error

	cancel context.CancelFunc
	done   chan struct{} // nil unless simulating
}

// Check reports whether Hub.Open would refuse name or opts, before
// anything is opened or started.
func Check(name string, opts Options) error {
	if !core.ValidSegment(name) {
		return fmt.Errorf("feed: name %q: want one URL path segment of [A-Za-z0-9._-]", name)
	}
	if o := opts.withDefaults(); !(o.Rate > 0 && o.Rate <= MaxRate) {
		return fmt.Errorf("feed: rate %g out of (0, %g]", o.Rate, MaxRate)
	}
	return nil
}

// newFeed builds and (when opts.Simulate) starts a feed.
func newFeed(name string, spec core.ScenarioSpec, opts Options) (*Feed, error) {
	if err := Check(name, opts); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	spec = spec.WithDefaults()
	sc, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	f := &Feed{name: name, spec: spec, opts: opts, subs: map[int]*subscriber{}}
	if opts.Simulate {
		ctx, cancel := context.WithCancel(context.Background())
		f.cancel = cancel
		f.done = make(chan struct{})
		go f.runSim(ctx, sc)
	}
	return f, nil
}

// Name returns the feed's registry key.
func (f *Feed) Name() string { return f.name }

// Spec returns the scenario spec defining the feed's telemetry schema.
func (f *Feed) Spec() core.ScenarioSpec { return f.spec }

// Options returns the feed's (defaulted) options.
func (f *Feed) Options() Options { return f.opts }

// runSim advances the scenario's world continuously, pacing virtual time
// to wall time at opts.Rate. Records are published from inside the
// engine's epoch callback.
func (f *Feed) runSim(ctx context.Context, sc core.Scenario) {
	defer close(f.done)
	w, h, err := sc.BuildWorld(f.opts.Seed, nil)
	if err != nil {
		f.mu.Lock()
		f.simErr = err
		f.mu.Unlock()
		return
	}
	h.OnEpoch(func(rec telemetry.Record) {
		f.mu.Lock()
		f.simEpochs++
		f.virtual = rec.TimeSec
		f.publishLocked(rec)
		f.mu.Unlock()
	})
	// One wall tick per epoch, clamped so extreme rates neither spin the
	// scheduler (< 2 ms) nor stall the stream (> 1 s).
	epochWall := time.Duration(sc.EpochSec / f.opts.Rate * float64(time.Second))
	if epochWall < 2*time.Millisecond {
		epochWall = 2 * time.Millisecond
	}
	if epochWall > time.Second {
		epochWall = time.Second
	}
	// Cap per-tick catch-up so a stalled process bursts at most this much
	// virtual time instead of replaying the whole gap at once.
	maxStep := 100 * sc.EpochSec
	// Fault injection draws from its own seeded stream, decoupled from the
	// world's traffic randomness: the same seed and tick sequence injects
	// the same stalls and bursts regardless of scenario.
	var (
		faultRng   *rand.Rand
		stallLeft  int
		stallTicks int
	)
	if f.opts.Fault != nil {
		faultRng = rand.New(rand.NewSource(f.opts.Seed ^ 0x5DEECE66D))
		stallTicks = f.opts.Fault.StallTicks
		if stallTicks <= 0 {
			stallTicks = 5
		}
	}
	ticker := time.NewTicker(epochWall)
	defer ticker.Stop()
	last := time.Now()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-ticker.C:
			dv := now.Sub(last).Seconds() * f.opts.Rate
			last = now
			if dv > maxStep {
				dv = maxStep
			}
			if fault := f.opts.Fault; fault != nil {
				if stallLeft > 0 {
					// Mid-stall: the feed stays silent; virtual time does
					// not advance, so the stall reads as a telemetry gap.
					stallLeft--
					continue
				}
				switch {
				case fault.StallProb > 0 && faultRng.Float64() < fault.StallProb:
					stallLeft = stallTicks
					f.mu.Lock()
					f.stalls++
					f.mu.Unlock()
					continue
				case fault.BurstProb > 0 && faultRng.Float64() < fault.BurstProb:
					// Burst flood: replay the maximum catch-up step in one
					// tick, stressing subscriber buffers and drop paths.
					dv = maxStep
					f.mu.Lock()
					f.bursts++
					f.mu.Unlock()
				}
			}
			w.Run(dv)
		}
	}
}

// Ingest publishes an externally produced record. The record must match
// the feed's scenario schema: one chain result per scenario group, in
// order — a mismatched record would silently scramble the downstream
// feature extraction. A zero HourOfDay is derived from TimeSec.
func (f *Feed) Ingest(rec telemetry.Record) error {
	groups := f.spec.Groups
	if len(rec.Chain.PerGroup) != len(groups) {
		return fmt.Errorf("feed %s: record has %d group results, scenario %s has %d groups",
			f.name, len(rec.Chain.PerGroup), f.spec.Name, len(groups))
	}
	for i, gr := range rec.Chain.PerGroup {
		if gr.Name != groups[i].Name {
			return fmt.Errorf("feed %s: group %d is %q, scenario %s wants %q",
				f.name, i, gr.Name, f.spec.Name, groups[i].Name)
		}
	}
	if rec.HourOfDay == 0 && rec.TimeSec != 0 {
		rec.HourOfDay = math.Mod(rec.TimeSec/3600, 24)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("feed %s: %w", f.name, ErrFeedClosed)
	}
	f.ingested++
	f.publishLocked(rec)
	return nil
}

// publishLocked fans one record out to every subscriber, non-blocking:
// a full buffer drops the record for that subscriber. Callers hold f.mu.
func (f *Feed) publishLocked(rec telemetry.Record) {
	if f.closed {
		return
	}
	f.records++
	for _, s := range f.subs {
		select {
		case s.ch <- rec:
		default:
			s.dropped++
			f.dropped++
		}
	}
}

// Subscribe registers a fan-out channel. The returned cancel is
// idempotent and closes the channel; the channel is also closed when the
// feed itself closes, so consumers terminate on `for range`.
func (f *Feed) Subscribe() (<-chan telemetry.Record, func(), error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, nil, fmt.Errorf("feed %s: %w", f.name, ErrFeedClosed)
	}
	id := f.nextSub
	f.nextSub++
	s := &subscriber{ch: make(chan telemetry.Record, f.opts.Buffer)}
	f.subs[id] = s
	cancel := func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		if sub, ok := f.subs[id]; ok {
			delete(f.subs, id)
			close(sub.ch)
		}
	}
	return s.ch, cancel, nil
}

// Stats returns a snapshot of the feed's counters.
func (f *Feed) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Stats{
		Records:     f.records,
		Ingested:    f.ingested,
		SimEpochs:   f.simEpochs,
		Dropped:     f.dropped,
		Subscribers: len(f.subs),
		VirtualSec:  f.virtual,
		Stalls:      f.stalls,
		Bursts:      f.bursts,
	}
}

// Err reports a simulator startup failure, if any.
func (f *Feed) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.simErr
}

// Close stops the simulator goroutine (waiting for it to exit) and closes
// every subscriber channel. It is idempotent.
func (f *Feed) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()
	if f.cancel != nil {
		f.cancel()
		<-f.done
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for id, s := range f.subs {
		delete(f.subs, id)
		close(s.ch)
	}
}

// Hub is the concurrent-safe catalog of named feeds.
type Hub struct {
	// Max, when > 0, bounds how many feeds may be open at once — each
	// simulated feed owns a background goroutine, so the cap bounds
	// background CPU. Enforced inside Open, under the hub lock.
	Max int

	mu    sync.Mutex
	feeds map[string]*Feed
}

// NewHub returns an empty hub.
func NewHub() *Hub { return &Hub{feeds: map[string]*Feed{}} }

// Open creates (and for Simulate feeds, starts) a feed.
func (h *Hub) Open(name string, spec core.ScenarioSpec, opts Options) (*Feed, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.feeds[name]; ok {
		return nil, fmt.Errorf("feed %q: %w", name, ErrFeedExists)
	}
	if h.Max > 0 && len(h.feeds) >= h.Max {
		return nil, fmt.Errorf("feed %q: %w (%d open)", name, ErrTooManyFeeds, len(h.feeds))
	}
	f, err := newFeed(name, spec, opts)
	if err != nil {
		return nil, err
	}
	h.feeds[name] = f
	return f, nil
}

// Get returns the named feed.
func (h *Hub) Get(name string) (*Feed, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	f, ok := h.feeds[name]
	if !ok {
		return nil, fmt.Errorf("feed %q: %w", name, ErrFeedNotFound)
	}
	return f, nil
}

// List returns every feed, sorted by name.
func (h *Hub) List() []*Feed {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Feed, 0, len(h.feeds))
	for _, f := range h.feeds {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Close stops and removes the named feed.
func (h *Hub) Close(name string) error {
	h.mu.Lock()
	f, ok := h.feeds[name]
	delete(h.feeds, name)
	h.mu.Unlock()
	if !ok {
		return fmt.Errorf("feed %q: %w", name, ErrFeedNotFound)
	}
	f.Close()
	return nil
}

// CloseAll stops and removes every feed — process shutdown.
func (h *Hub) CloseAll() {
	h.mu.Lock()
	feeds := make([]*Feed, 0, len(h.feeds))
	for name, f := range h.feeds {
		feeds = append(feeds, f)
		delete(h.feeds, name)
	}
	h.mu.Unlock()
	for _, f := range feeds {
		f.Close()
	}
}
