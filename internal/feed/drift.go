package feed

import (
	"fmt"
	"math"
)

// DriftConfig tunes the drift monitor. Zero values select the defaults,
// so an empty JSON object is a usable configuration.
type DriftConfig struct {
	// Baseline is how many (prediction, outcome) observations freeze the
	// reference window (default 64). The baseline captures "what normal
	// looked like right after (re)training".
	Baseline int `json:"baseline,omitempty"`
	// Recent is the sliding comparison window (default 32).
	Recent int `json:"recent,omitempty"`
	// ErrorRatio flags drift when the recent mean absolute prediction
	// error exceeds ErrorRatio × the baseline MAE (default 2).
	ErrorRatio float64 `json:"error_ratio,omitempty"`
	// MeanShift flags drift when any feature's recent mean moves more
	// than MeanShift baseline standard deviations from its baseline mean
	// (default 4).
	MeanShift float64 `json:"mean_shift,omitempty"`
	// Cooldown is how many observations after a trigger before the
	// monitor can fire again (default Baseline) — one retrain gets a
	// chance to land before the next alarm.
	Cooldown int `json:"cooldown,omitempty"`
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.Baseline <= 0 {
		c.Baseline = 64
	}
	if c.Recent <= 0 {
		c.Recent = 32
	}
	if c.ErrorRatio <= 0 {
		c.ErrorRatio = 2
	}
	if c.MeanShift <= 0 {
		c.MeanShift = 4
	}
	if c.Cooldown <= 0 {
		c.Cooldown = c.Baseline
	}
	return c
}

// DriftReport describes one drift trigger.
type DriftReport struct {
	// Kind is "error" (prediction-error blowup) or "feature-shift"
	// (input distribution moved).
	Kind string `json:"kind"`
	// Feature is the shifted feature's column index (feature-shift only).
	Feature int `json:"feature,omitempty"`
	// Score is the observed statistic: the MAE ratio for "error", the
	// shift in baseline standard deviations for "feature-shift".
	Score float64 `json:"score"`
	// Threshold is the configured trigger level the score exceeded.
	Threshold float64 `json:"threshold"`
	// BaselineMAE / RecentMAE document the error comparison.
	BaselineMAE float64 `json:"baseline_mae"`
	RecentMAE   float64 `json:"recent_mae"`
	// At is the observation count when the trigger fired.
	At uint64 `json:"at"`
}

// String implements fmt.Stringer for logs.
func (r DriftReport) String() string {
	if r.Kind == "feature-shift" {
		return fmt.Sprintf("drift(feature %d shifted %.2fσ > %.2fσ at obs %d)", r.Feature, r.Score, r.Threshold, r.At)
	}
	return fmt.Sprintf("drift(MAE %.4g = %.2f× baseline %.4g > %.2f× at obs %d)", r.RecentMAE, r.Score, r.BaselineMAE, r.Threshold, r.At)
}

// DriftMonitor detects model/data drift from a stream of (features,
// outcome, prediction) observations: it freezes a baseline of prediction
// error and feature statistics right after training, then compares a
// sliding recent window against it. It is not safe for concurrent use;
// the Monitor serializes access.
type DriftMonitor struct {
	cfg DriftConfig

	// Baseline accumulation, frozen once baseCount reaches cfg.Baseline.
	frozen    bool
	baseCount int
	baseErr   float64   // running |err| sum, then frozen MAE
	baseSum   []float64 // per-feature value sums, then frozen means
	baseSumSq []float64 // per-feature squared sums, then frozen stds
	// Sliding recent window (rings of length cfg.Recent).
	recErr   []float64
	recFeat  [][]float64
	recPos   int
	recCount int
	errSum   float64
	featSum  []float64

	seen     uint64
	cooldown int
}

// NewDriftMonitor builds a monitor with cfg (zero fields defaulted).
func NewDriftMonitor(cfg DriftConfig) *DriftMonitor {
	return &DriftMonitor{cfg: cfg.withDefaults()}
}

// BaselineReady reports whether the reference window is frozen.
func (m *DriftMonitor) BaselineReady() bool { return m.frozen }

// Reset drops all state so the next observations rebuild the baseline —
// called after a retrained model is swapped in, because both the error
// distribution and "normal" feature statistics changed with it.
func (m *DriftMonitor) Reset() {
	cfg, seen := m.cfg, m.seen
	*m = DriftMonitor{cfg: cfg, seen: seen}
}

// Observe consumes one scored example and reports whether it triggered
// drift. x must have a consistent width across calls.
func (m *DriftMonitor) Observe(x []float64, outcome, pred float64) (DriftReport, bool) {
	m.seen++
	absErr := math.Abs(outcome - pred)
	if !m.frozen {
		if m.baseSum == nil {
			m.baseSum = make([]float64, len(x))
			m.baseSumSq = make([]float64, len(x))
		}
		m.baseErr += absErr
		for j, v := range x {
			m.baseSum[j] += v
			m.baseSumSq[j] += v * v
		}
		m.baseCount++
		if m.baseCount >= m.cfg.Baseline {
			m.freeze()
		}
		return DriftReport{}, false
	}

	// Slide the recent window.
	if m.recErr == nil {
		m.recErr = make([]float64, m.cfg.Recent)
		m.recFeat = make([][]float64, m.cfg.Recent)
		m.featSum = make([]float64, len(x))
	}
	if m.recCount == m.cfg.Recent {
		old := m.recFeat[m.recPos]
		m.errSum -= m.recErr[m.recPos]
		for j, v := range old {
			m.featSum[j] -= v
		}
	}
	m.recErr[m.recPos] = absErr
	if m.recFeat[m.recPos] == nil {
		m.recFeat[m.recPos] = make([]float64, len(x))
	}
	copy(m.recFeat[m.recPos], x)
	m.errSum += absErr
	for j, v := range x {
		m.featSum[j] += v
	}
	m.recPos = (m.recPos + 1) % m.cfg.Recent
	if m.recCount < m.cfg.Recent {
		m.recCount++
	}

	if m.cooldown > 0 {
		m.cooldown--
		return DriftReport{}, false
	}
	if m.recCount < m.cfg.Recent {
		return DriftReport{}, false
	}

	recMAE := m.errSum / float64(m.recCount)
	baseMAE := math.Max(m.baseErr, 1e-9)
	if ratio := recMAE / baseMAE; ratio > m.cfg.ErrorRatio {
		m.cooldown = m.cfg.Cooldown
		return DriftReport{
			Kind: "error", Score: ratio, Threshold: m.cfg.ErrorRatio,
			BaselineMAE: m.baseErr, RecentMAE: recMAE, At: m.seen,
		}, true
	}
	for j := range m.featSum {
		mean := m.baseSum[j]
		std := m.baseSumSq[j]
		// Floor the scale so constant baseline features still allow a
		// meaningful (topology-change) trigger without dividing by zero.
		scale := math.Max(std, 1e-9+1e-6*math.Abs(mean))
		recMean := m.featSum[j] / float64(m.recCount)
		if shift := math.Abs(recMean-mean) / scale; shift > m.cfg.MeanShift {
			m.cooldown = m.cfg.Cooldown
			return DriftReport{
				Kind: "feature-shift", Feature: j, Score: shift, Threshold: m.cfg.MeanShift,
				BaselineMAE: m.baseErr, RecentMAE: recMAE, At: m.seen,
			}, true
		}
	}
	return DriftReport{}, false
}

// freeze converts the baseline accumulators into frozen statistics:
// baseErr becomes the baseline MAE, baseSum the means, baseSumSq the
// standard deviations.
func (m *DriftMonitor) freeze() {
	n := float64(m.baseCount)
	m.baseErr /= n
	for j := range m.baseSum {
		mean := m.baseSum[j] / n
		variance := m.baseSumSq[j]/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		m.baseSum[j] = mean
		m.baseSumSq[j] = math.Sqrt(variance)
	}
	m.frozen = true
}
