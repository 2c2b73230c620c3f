// Package traffic synthesizes the offered load driving the NFV simulator:
// flow arrivals from a Markov-modulated Poisson process overlaid with a
// diurnal curve and optional flash crowds, heavy-tailed (Pareto) flow
// sizes, lognormal flow durations, and a bimodal packet-size mix. The
// generator reproduces the properties of real carrier traces that stress
// resource predictors — burstiness, nonstationarity, and heavy tails —
// while staying seeded and fully reproducible.
package traffic

import (
	"math"
	"math/rand"

	"nfvxai/internal/stats"
)

// The per-flow shape every profile shares: packets per flow are Pareto
// (xm=4, alpha=1.5: heavy tailed, mean 12), flow lifetimes lognormal
// (mean ≈ 4 s), and smallPktFrac of packets are 64 bytes, the rest 1500.
var (
	flowPackets     = stats.Pareto{Xm: 4, Alpha: 1.5}
	flowDurationSec = stats.LogNormal{Mu: 1.2, Sigma: 0.6}
)

const smallPktFrac = 0.5

// FlashCrowd is a transient load surge (e.g. a viral event).
type FlashCrowd struct {
	StartSec    float64
	DurationSec float64
	Multiplier  float64 // ≥ 1
}

// Profile declares the statistical shape of one chain's workload.
type Profile struct {
	// BaseFPS is the mean new-flow arrival rate (flows/sec) before
	// modulation.
	BaseFPS float64
	// DiurnalAmplitude in [0, 1) scales the day/night swing; 0 disables.
	DiurnalAmplitude float64
	// PeakHour is the hour-of-day (0–24) of the diurnal maximum.
	PeakHour float64
	// BurstRatio ≥ 1 is the high/low rate ratio of the MMPP burst overlay
	// (1 disables bursting); BurstRate is the state-flip rate (1/sec).
	BurstRatio float64
	BurstRate  float64
	// FlashCrowds lists transient surges.
	FlashCrowds []FlashCrowd
	// Seed drives all randomness of this generator.
	Seed int64
}

func (p Profile) withDefaults() Profile {
	if p.BurstRatio < 1 {
		p.BurstRatio = 1
	}
	if p.BurstRate <= 0 {
		p.BurstRate = 0.05
	}
	return p
}

// Demand is the aggregate offered load of one epoch.
type Demand struct {
	// TimeSec is the epoch start; HourOfDay derives from it.
	TimeSec   float64 `json:"time_sec"`
	HourOfDay float64 `json:"hour_of_day"`
	// NewFlows is the number of flow arrivals this epoch.
	NewFlows int `json:"new_flows"`
	// ActiveFlows is the number of concurrently active flows.
	ActiveFlows int `json:"active_flows"`
	// PPS and BPS are offered packets/sec and bytes/sec.
	PPS float64 `json:"pps"`
	BPS float64 `json:"bps"`
	// AvgPktBytes is the mean packet size.
	AvgPktBytes float64 `json:"avg_pkt_bytes"`
	// Burst in [0, 1] is the fraction of the epoch spent in the MMPP high
	// state — the instantaneous burstiness indicator.
	Burst float64 `json:"burst"`
}

// cohort aggregates the flows admitted in one epoch.
type cohort struct {
	pps, bps     float64
	flows        float64
	remainingSec float64
}

// Generator produces per-epoch Demand values.
type Generator struct {
	profile Profile
	rng     *rand.Rand
	mmpp    *stats.MMPP2
	cohorts []cohort
	nowSec  float64
}

// NewGenerator builds a generator for the profile.
func NewGenerator(p Profile) *Generator {
	p = p.withDefaults()
	g := &Generator{
		profile: p,
		rng:     rand.New(rand.NewSource(p.Seed + 0x7AFF1C)),
	}
	g.mmpp = stats.NewMMPP2(1, p.BurstRatio, p.BurstRate, p.BurstRate)
	return g
}

// diurnal returns the load multiplier at time t.
func (g *Generator) diurnal(tSec float64) float64 {
	if g.profile.DiurnalAmplitude <= 0 {
		return 1
	}
	hour := math.Mod(tSec/3600, 24)
	phase := 2 * math.Pi * (hour - g.profile.PeakHour) / 24
	return 1 + g.profile.DiurnalAmplitude*math.Cos(phase)
}

// flash returns the flash-crowd multiplier at time t.
func (g *Generator) flash(tSec float64) float64 {
	m := 1.0
	for _, fc := range g.profile.FlashCrowds {
		if tSec >= fc.StartSec && tSec < fc.StartSec+fc.DurationSec && fc.Multiplier > m {
			m = fc.Multiplier
		}
	}
	return m
}

// Next advances the generator by dtSec and returns the epoch's demand.
func (g *Generator) Next(dtSec float64) Demand {
	t := g.nowSec
	g.nowSec += dtSec

	// Modulated flow arrival rate: the MMPP chain acts as a burst
	// modulator (low state ×1, high state ×BurstRatio, normalized so the
	// long-run mean stays BaseFPS), scaled by the diurnal curve and any
	// flash crowd.
	g.mmpp.Arrivals(g.rng, dtSec) // advance the modulating chain
	burstState := float64(g.mmpp.State())
	burstMult := 1.0
	if g.mmpp.State() == 1 {
		burstMult = g.profile.BurstRatio
	}
	meanMult := (1 + g.profile.BurstRatio) / 2
	rate := g.profile.BaseFPS * g.diurnal(t) * g.flash(t) * burstMult / meanMult
	newFlows := stats.Poisson(g.rng, rate*dtSec)

	// Build the new cohort: aggregate rate contributed by this epoch's
	// flows. Sample up to 256 individual flows, then scale (keeps cost
	// bounded at carrier-grade arrival rates without losing tail shape).
	var c cohort
	if newFlows > 0 {
		sampleN := newFlows
		if sampleN > 256 {
			sampleN = 256
		}
		var pktSum, durSum, byteSum float64
		for i := 0; i < sampleN; i++ {
			pkts := flowPackets.Sample(g.rng)
			dur := math.Max(0.5, flowDurationSec.Sample(g.rng))
			avgPkt := g.samplePktSize()
			pktSum += pkts / dur
			byteSum += pkts / dur * avgPkt
			durSum += dur
		}
		scale := float64(newFlows) / float64(sampleN)
		c = cohort{
			pps:          pktSum * scale,
			bps:          byteSum * scale,
			flows:        float64(newFlows),
			remainingSec: durSum / float64(sampleN),
		}
		g.cohorts = append(g.cohorts, c)
	}

	// Sum active cohorts and age them.
	var pps, bps, active float64
	alive := g.cohorts[:0]
	for _, co := range g.cohorts {
		pps += co.pps
		bps += co.bps
		active += co.flows
		co.remainingSec -= dtSec
		if co.remainingSec > 0 {
			alive = append(alive, co)
		}
	}
	g.cohorts = alive

	avgPkt := 0.0
	if pps > 0 {
		avgPkt = bps / pps
	}
	return Demand{
		TimeSec:     t,
		HourOfDay:   math.Mod(t/3600, 24),
		NewFlows:    newFlows,
		ActiveFlows: int(active),
		PPS:         pps,
		BPS:         bps,
		AvgPktBytes: avgPkt,
		Burst:       burstState,
	}
}

func (g *Generator) samplePktSize() float64 {
	if g.rng.Float64() < smallPktFrac {
		return 64
	}
	return 1500
}
