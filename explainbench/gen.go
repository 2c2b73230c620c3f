package main

import "math/rand"

// The request generators. Each takes the workload seed (mixed with a
// per-stream constant so streams of one run are independent) and
// reproduces exactly from it; the server only ever sees the rows they
// pick.

// zipfExponent skews instance popularity: rank 0 is drawn most often.
const zipfExponent = 1.1

// zipfStream draws ranks in [0, n) with Zipf popularity.
func zipfStream(seed int64, n int) func() int {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), zipfExponent, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// hotSet picks k distinct row indices out of n; zipfStream ranks index
// into it, so which rows are hot changes with the seed.
func hotSet(seed int64, n, k int) []int {
	return permutation(seed, n)[:k]
}

// permutation is a seeded shuffle of [0, n).
func permutation(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// sampler decides which responses the correctness oracle re-checks: each
// request independently with probability p, at most max in total.
type sampler struct {
	r     *rand.Rand
	p     float64
	left  int
	taken int
}

func newSampler(seed int64, p float64, max int) *sampler {
	return &sampler{r: rand.New(rand.NewSource(seed)), p: p, left: max}
}

func (s *sampler) take() bool {
	if s.r.Float64() >= s.p || s.left == 0 {
		return false
	}
	s.left--
	s.taken++
	return true
}

// Stream seeds: the workload seed is mixed with one of these per stream.
const (
	seedArrivals = 0x5eed0001
	seedRows     = 0x5eed0002
	seedZipf     = 0x5eed0003
	seedSample   = 0x5eed0004
	seedProbe    = 0x5eed0005
)

func streamSeed(seed, stream int64) int64 { return seed*1_000_003 + stream }
