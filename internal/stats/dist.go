package stats

import (
	"math"
	"math/rand"
)

// Pareto is a Pareto (Type I) distribution with scale Xm > 0 and shape
// Alpha > 0. Heavy-tailed flow sizes use Alpha in (1, 2).
type Pareto struct {
	Xm    float64
	Alpha float64
}

// Sample draws a variate via inverse transform.
func (d Pareto) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return d.Xm / math.Pow(u, 1/d.Alpha)
}

// Mean returns the distribution mean (Inf when Alpha <= 1).
func (d Pareto) Mean() float64 {
	if d.Alpha <= 1 {
		return math.Inf(1)
	}
	return d.Alpha * d.Xm / (d.Alpha - 1)
}

// LogNormal is a log-normal distribution parameterized by the mean Mu and
// standard deviation Sigma of the underlying normal.
type LogNormal struct {
	Mu, Sigma float64
}

// Sample draws a variate.
func (d LogNormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(d.Mu + d.Sigma*rng.NormFloat64())
}

// Mean returns the distribution mean exp(mu + sigma²/2).
func (d LogNormal) Mean() float64 { return math.Exp(d.Mu + d.Sigma*d.Sigma/2) }

// Poisson draws a Poisson-distributed count with the given mean. It uses
// Knuth's product method for small means and a normal approximation above
// 30 (adequate for workload synthesis).
func Poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := mean + math.Sqrt(mean)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// MMPP2 is a two-state Markov-modulated Poisson process: a bursty arrival
// process that alternates between a low-rate and a high-rate state. It is
// the standard parsimonious model for bursty packet/flow arrivals.
type MMPP2 struct {
	RateLow, RateHigh float64 // arrival rates in each state (events/sec)
	ToHigh, ToLow     float64 // state transition rates (1/sec)

	state   int     // 0 = low, 1 = high
	residue float64 // time left in the current state
}

// NewMMPP2 returns an MMPP starting in the low state.
func NewMMPP2(rateLow, rateHigh, toHigh, toLow float64) *MMPP2 {
	return &MMPP2{RateLow: rateLow, RateHigh: rateHigh, ToHigh: toHigh, ToLow: toLow}
}

// Rate returns the arrival rate of the current state.
func (m *MMPP2) Rate() float64 {
	if m.state == 1 {
		return m.RateHigh
	}
	return m.RateLow
}

// Arrivals returns the number of arrivals during the next dt seconds,
// advancing the modulating chain. The interval is split at state changes so
// bursts shorter than dt are still represented.
func (m *MMPP2) Arrivals(rng *rand.Rand, dt float64) int {
	total := 0
	remaining := dt
	for remaining > 0 {
		if m.residue <= 0 {
			// Draw the sojourn time of the current state.
			rate := m.ToHigh
			if m.state == 1 {
				rate = m.ToLow
			}
			if rate <= 0 {
				m.residue = math.Inf(1)
			} else {
				m.residue = rng.ExpFloat64() / rate
			}
		}
		step := remaining
		if m.residue < step {
			step = m.residue
		}
		total += Poisson(rng, m.Rate()*step)
		m.residue -= step
		remaining -= step
		if m.residue <= 0 {
			m.state = 1 - m.state
		}
	}
	return total
}

// State reports the current modulating state (0 low, 1 high).
func (m *MMPP2) State() int { return m.state }
