// Package telemetry is the monitoring plane of the NFV substrate: the
// per-epoch Record of one chain (offered demand, chain result, core
// allocation), a fixed-size sliding Window of records, and the feature
// extraction that turns a window into the tabular rows the ML models
// train on and explain.
package telemetry

import (
	"fmt"
	"math"

	"nfvxai/internal/dataset"
	"nfvxai/internal/nfv/chain"
	"nfvxai/internal/nfv/traffic"
)

// Record is the telemetry of one chain over one epoch — the raw material
// for both dashboards and training data. The JSON tags define the wire
// schema shared by the simulator and the HTTP ingest endpoint
// (POST /v1/feeds/{name}/records), so real telemetry can replace the
// simulated feed without a schema change.
type Record struct {
	TimeSec   float64 `json:"time_sec"`
	HourOfDay float64 `json:"hour_of_day"`

	Demand traffic.Demand `json:"demand"`
	Chain  chain.Result   `json:"chain"`

	// TotalCores is the chain's allocation during the epoch.
	TotalCores int `json:"total_cores"`
}

// Window is a bounded sliding window of records backed by a fixed ring
// buffer: Push is O(1) with no per-record allocation, so long-running
// streaming feeds pay nothing for windowed feature extraction.
type Window struct {
	buf  []Record
	head int // index of the oldest record
	n    int // records currently buffered
}

// NewWindow returns a window holding up to n records.
func NewWindow(n int) *Window {
	if n < 1 {
		n = 1
	}
	return &Window{buf: make([]Record, n)}
}

// Cap returns the window capacity.
func (w *Window) Cap() int { return len(w.buf) }

// Push appends a record, evicting the oldest beyond capacity.
func (w *Window) Push(r Record) {
	if w.n < len(w.buf) {
		w.buf[(w.head+w.n)%len(w.buf)] = r
		w.n++
		return
	}
	w.buf[w.head] = r
	w.head = (w.head + 1) % len(w.buf)
}

// Len returns the number of buffered records.
func (w *Window) Len() int { return w.n }

// At returns the i-th oldest record.
func (w *Window) At(i int) Record {
	if i < 0 || i >= w.n {
		panic(fmt.Sprintf("telemetry: window index %d out of range [0, %d)", i, w.n))
	}
	return w.buf[(w.head+i)%len(w.buf)]
}

// Last returns the most recent record; it panics on an empty window.
func (w *Window) Last() Record {
	if w.n == 0 {
		panic("telemetry: Last on empty window")
	}
	return w.At(w.n - 1)
}

// FeatureNames returns the feature schema produced by Features for a
// chain with the given group names, in order.
func FeatureNames(groupNames []string) []string {
	names := []string{
		"pps", "bps_mbit", "fps", "active_flows_k", "avg_pkt_bytes", "burst",
		"hour_sin", "hour_cos",
		"pps_lag1", "pps_delta", "pps_ewma",
		"loss_rate", "chain_latency_ms", "total_cores",
	}
	for _, g := range groupNames {
		names = append(names,
			"util_"+g,
			"lat_ms_"+g,
			"replicas_"+g,
			"state_factor_"+g,
		)
	}
	return names
}

// Features extracts the feature vector for the most recent record in the
// window (using earlier records for lags). The window must be non-empty;
// missing lags fall back to the current value.
func Features(w *Window) []float64 {
	last := w.Last()
	d := last.Demand
	ppsLag1 := d.PPS
	if w.Len() >= 2 {
		ppsLag1 = w.At(w.Len() - 2).Demand.PPS
	}
	// Short EWMA over the window.
	alpha := 0.4
	ewma := 0.0
	for i := 0; i < w.Len(); i++ {
		v := w.At(i).Demand.PPS
		if i == 0 {
			ewma = v
			continue
		}
		ewma = alpha*v + (1-alpha)*ewma
	}
	out := []float64{
		d.PPS,
		d.BPS * 8 / 1e6,
		float64(d.NewFlows),
		float64(d.ActiveFlows) / 1000,
		d.AvgPktBytes,
		d.Burst,
		math.Sin(2 * math.Pi * last.HourOfDay / 24),
		math.Cos(2 * math.Pi * last.HourOfDay / 24),
		ppsLag1,
		d.PPS - ppsLag1,
		ewma,
		last.Chain.LossRate,
		last.Chain.LatencyMs,
		float64(last.TotalCores),
	}
	for _, gr := range last.Chain.PerGroup {
		out = append(out, gr.Utilization, gr.LatencyMs, float64(gr.Replicas), gr.StateFactor)
	}
	return out
}

// TargetKind selects what the extracted dataset predicts.
type TargetKind int

// Supported prediction targets.
const (
	// TargetBottleneckUtil is the next epoch's highest group utilization.
	TargetBottleneckUtil TargetKind = iota
	// TargetChainLatency is the next epoch's end-to-end latency (ms).
	TargetChainLatency
	// TargetViolation is 1 when the next epoch violates the given SLO
	// latency bound.
	TargetViolation
)

// Extractor accumulates (features, next-epoch target) pairs as records
// stream in. With MaxRows set it becomes a streaming accumulator: the
// dataset is ring-bounded to the newest MaxRows examples, so a feed that
// runs for weeks holds a sliding training window instead of growing
// without bound.
type Extractor struct {
	Target TargetKind
	// SLOLatencyMs is the violation threshold for TargetViolation.
	SLOLatencyMs float64
	// WindowLen is the feature lag window (default 8).
	WindowLen int
	// MaxRows, when > 0, bounds the accumulated dataset to the newest
	// MaxRows examples (amortized O(1) per push).
	MaxRows int

	win     *Window
	pending []float64 // features awaiting next-epoch target
	ds      *dataset.Dataset
	groups  []string
}

// NewExtractor builds an extractor for a chain with the given group names.
func NewExtractor(target TargetKind, sloMs float64, groupNames []string) *Extractor {
	task := dataset.Regression
	if target == TargetViolation {
		task = dataset.Classification
	}
	e := &Extractor{
		Target:       target,
		SLOLatencyMs: sloMs,
		WindowLen:    8,
		groups:       append([]string(nil), groupNames...),
	}
	e.win = NewWindow(e.WindowLen)
	e.ds = dataset.New(task, FeatureNames(groupNames)...)
	return e
}

// Push feeds one epoch record. When a previous epoch's features are
// pending, the new record supplies their target and the pair is added to
// the dataset (evicting the oldest rows beyond MaxRows). It reports
// whether a completed (features, target) example was added.
func (e *Extractor) Push(r Record) bool {
	added := false
	if e.pending != nil {
		e.ds.Add(e.pending, e.TargetOf(r))
		added = true
		if e.MaxRows > 0 && e.ds.Len() > e.MaxRows+e.MaxRows/4 {
			// Trim lazily with 25% slack so the copy amortizes to O(1).
			e.ds.DropFront(e.ds.Len() - e.MaxRows)
		}
	}
	e.win.Push(r)
	e.pending = Features(e.win)
	return added
}

// TargetOf computes the extractor's prediction target from one record —
// the label a model's previous-epoch features are paired with. Exported so
// streaming monitors can score live predictions against the same label the
// training pipeline uses.
func (e *Extractor) TargetOf(r Record) float64 {
	switch e.Target {
	case TargetChainLatency:
		return r.Chain.LatencyMs
	case TargetViolation:
		if r.Chain.LatencyMs > e.SLOLatencyMs || r.Chain.LossRate > 0.01 {
			return 1
		}
		return 0
	default: // TargetBottleneckUtil
		maxU := 0.0
		for _, g := range r.Chain.PerGroup {
			if g.Utilization > maxU {
				maxU = g.Utilization
			}
		}
		return maxU
	}
}

// Dataset returns the accumulated dataset.
func (e *Extractor) Dataset() *dataset.Dataset { return e.ds }

// String summarizes the extractor state.
func (e *Extractor) String() string {
	return fmt.Sprintf("extractor(target=%d rows=%d)", int(e.Target), e.ds.Len())
}
