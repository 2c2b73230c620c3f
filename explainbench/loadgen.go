package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// poissonSchedule returns n arrival offsets of a Poisson process at rate
// arrivals per second, drawn from seed. The open loop sends request i at
// start+due[i] whether or not earlier requests have completed.
func poissonSchedule(seed int64, rate float64, n int) []time.Duration {
	r := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += r.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// fixedSchedule returns n arrival offsets 1/rate seconds apart.
func fixedSchedule(_ int64, rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i+1) / rate * float64(time.Second))
	}
	return due
}

// openResult is one open-loop request: Late is how long after its due
// time it was sent, Latency how long after its due time it completed.
type openResult struct {
	Late, Latency time.Duration
	Err           error
}

// openLoop issues len(due) requests from workers goroutines, request i
// due at start+due[i]. A request is timed from when it was due, not from
// when a worker got around to sending it, so a stalled server charges
// its stall to every request scheduled behind it (no coordinated
// omission). do performs request i and reports its failure.
func openLoop(due []time.Duration, workers int, do func(i int) error) []openResult {
	out := make([]openResult, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				waitUntil(at)
				sent := time.Now()
				err := do(i)
				out[i] = openResult{Late: sent.Sub(at), Latency: time.Since(at), Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// waitUntil blocks the calling goroutine's thread in nanosleep until at.
// time.Sleep would wake up to a millisecond late on an otherwise idle
// Go runtime (its poller waits in whole milliseconds), and that slack
// would be charged to every sub-millisecond request as latency; spinning
// instead would take a core from the server under test.
func waitUntil(at time.Time) {
	for d := time.Until(at); d > 0; d = time.Until(at) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// closedLoop runs workers goroutines that each send their next request as
// soon as the previous one completes, until d has elapsed. It returns the
// number of requests attempted and failed, and each worker's completion
// offsets (from the phase start) of its successful requests.
func closedLoop(d time.Duration, workers int, do func(i int) error) (attempted, failed int, done [][]time.Duration) {
	var next, bad atomic.Int64
	var wg sync.WaitGroup
	done = make([][]time.Duration, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(start) < d {
				if err := do(int(next.Add(1) - 1)); err != nil {
					bad.Add(1)
					continue
				}
				done[w] = append(done[w], time.Since(start))
			}
		}(w)
	}
	wg.Wait()
	return int(next.Load()), int(bad.Load()), done
}

// Long phases are summarized per window, and the windows by their median,
// so that a burst of interference from outside the process moves a few
// windows rather than the whole run.
const (
	// tailWindow is the open-loop window: consecutive requests whose
	// tail percentile (p90 at this size) is taken on its own.
	tailWindow = 100
	// rateWindow is the closed-loop window, used when each holds at
	// least minRateWindow completions.
	rateWindow    = time.Second
	minRateWindow = 1000
)

// tailPlan is how the tail of an open-loop phase of n requests is
// reported: w windows of consecutive requests, the q-th percentile within
// each (q the highest percentile with ten samples beyond it in a window)
// and the median over the windows. A phase too short for two windows is
// one window.
func tailPlan(n int) (w int, q float64) {
	w = n / tailWindow
	if w < 2 {
		w = 1
	}
	return w, tailPercentile(n / w)
}

// windowedTail applies tailPlan to lat (in request due-time order).
func windowedTail(lat []float64) float64 {
	w, q := tailPlan(len(lat))
	tails := make([]float64, w)
	for k := range tails {
		win := append([]float64(nil), lat[k*len(lat)/w:(k+1)*len(lat)/w]...)
		tails[k] = percentile(win, q)
	}
	return median(tails)
}

// rateWindows is how many windows closedRate cuts a closed-loop phase
// of the given completions and length into.
func rateWindows(completed int, elapsed time.Duration) int {
	w := int(elapsed / rateWindow)
	if byCount := completed / minRateWindow; byCount < w {
		w = byCount
	}
	if w < 2 {
		return 1
	}
	return w
}

// closedRate is the completion rate per second of a closed-loop phase,
// from each worker's completion offsets. A fast phase is cut into
// rateWindows windows of equal duration and reports the median window's
// rate. A slow one, with too few completions for that, reports the sum
// over workers of completions divided by the worker's own busy span (up
// to its last completion): with explains that take hundreds of
// milliseconds, dividing by the phase's end instead would charge each run
// a different share of an unfinished explain.
func closedRate(done [][]time.Duration) float64 {
	var all []time.Duration
	var elapsed time.Duration
	for _, d := range done {
		all = append(all, d...)
		if n := len(d); n > 0 && d[n-1] > elapsed {
			elapsed = d[n-1]
		}
	}
	w := rateWindows(len(all), elapsed)
	if w == 1 {
		var rate float64
		for _, d := range done {
			if n := len(d); n > 0 {
				rate += float64(n) / d[n-1].Seconds()
			}
		}
		return rate
	}
	counts := make([]float64, w)
	for _, t := range all {
		k := int(int64(t) * int64(w) / int64(elapsed))
		if k >= w {
			k = w - 1
		}
		counts[k]++
	}
	span := elapsed.Seconds() / float64(w)
	for k := range counts {
		counts[k] /= span
	}
	return median(counts)
}

// tailLadder lists the percentiles the tail metric may report, lowest
// first.
var tailLadder = []float64{50, 60, 70, 75, 80, 90, 95, 98, 99, 99.5, 99.8, 99.9, 99.95, 99.98, 99.99, 99.995, 99.998, 99.999}

// tailPercentile is the highest ladder percentile that still has at least
// ten samples beyond it among n samples (nearest-rank: the value at rank
// ceil(q/100·n), with n−rank samples above it). It depends only on n, so
// a workload with a fixed request count always reports the same
// percentile. Below 20 samples it falls back to the median.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, q := range tailLadder {
		if n-nearestRank(q, n) >= 10 {
			best = q
		}
	}
	return best
}

func nearestRank(q float64, n int) int {
	// The epsilon keeps decimal percentiles exact: 99.9/100·10000 is
	// 9990.000000000002 in floating point, which must be rank 9990.
	r := int(math.Ceil(q*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank q-th percentile of xs (sorted in
// place).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[nearestRank(q, len(xs))-1]
}

// median is the middle value of xs (mean of the two middle values for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
