package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nfvxai/internal/testutil/leakcheck"
)

// TestParallelForCoversRange checks every index is visited exactly once
// across chunk boundaries, pool sizes and input sizes.
func TestParallelForCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := New(workers)
		for _, n := range []int{0, 1, 2, 7, 64, 1000, 4097} {
			hits := make([]int32, n)
			p.ParallelFor(n, 8, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

// TestParallelForNested drives the deadlock scenario the shared pool
// exists to survive: every chunk of an outer call starts an inner
// ParallelFor on the same saturated pool. Caller participation must keep
// everything progressing.
func TestParallelForNested(t *testing.T) {
	p := New(2)
	var total atomic.Int64
	outer := 64
	inner := 256
	p.ParallelFor(outer, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.ParallelFor(inner, 16, func(lo, hi int) {
				total.Add(int64(hi - lo))
			})
		}
	})
	if got := total.Load(); got != int64(outer*inner) {
		t.Fatalf("nested total = %d, want %d", got, outer*inner)
	}
}

// TestParallelForDeterministic pins that chunked execution produces the
// same output slice as a sequential loop (each chunk owns its range).
func TestParallelForDeterministic(t *testing.T) {
	p := New(4)
	n := 10000
	out := make([]float64, n)
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i) * 1.5
	}
	for rep := 0; rep < 10; rep++ {
		clear(out)
		p.ParallelFor(n, 64, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = float64(i) * 1.5
			}
		})
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("rep %d: out[%d] = %g, want %g", rep, i, out[i], want[i])
			}
		}
	}
}

func TestConfigure(t *testing.T) {
	old := Default()
	defer defaultPool.Store(old)
	Configure(3, true) // pin is ignored
	p := Default()
	if p == old || p.Workers() != 3 {
		t.Fatalf("Configure(3, true) -> same pool %v, workers=%d", p == old, p.Workers())
	}
	var count atomic.Int64
	p.ParallelFor(100, 1, func(lo, hi int) { count.Add(int64(hi - lo)) })
	if count.Load() != 100 {
		t.Fatalf("configured pool covered %d of 100", count.Load())
	}
}

// TestConfigureTwice replaces the default pool around nested calls and
// checks that no helper of either pool is left running: a replaced pool
// must strand nothing.
func TestConfigureTwice(t *testing.T) {
	old := Default()
	defer defaultPool.Store(old)
	nested := func() int64 {
		var total atomic.Int64
		ParallelFor(32, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				ParallelFor(128, 8, func(lo, hi int) { total.Add(int64(hi - lo)) })
			}
		})
		return total.Load()
	}
	Configure(2, false)
	if got := nested(); got != 32*128 {
		t.Fatalf("2-worker nested total = %d, want %d", got, 32*128)
	}
	Configure(3, false)
	if got := nested(); got != 32*128 {
		t.Fatalf("3-worker nested total = %d, want %d", got, 32*128)
	}
	if err := leakcheck.Check(leakcheck.DefaultDeadline); err != nil {
		t.Fatal(err)
	}
}

// TestParallelForBound runs K concurrent callers on a W-worker pool and
// checks that no more than W+K chunk bodies ever run at once: each caller
// runs its own chunks, and every helper holds one of the pool's W
// tokens.
func TestParallelForBound(t *testing.T) {
	const W, K = 2, 3
	p := New(W)
	var running, peak atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < K; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				p.ParallelFor(64, 1, func(lo, hi int) {
					now := running.Add(1)
					for {
						old := peak.Load()
						if now <= old || peak.CompareAndSwap(old, now) {
							break
						}
					}
					time.Sleep(50 * time.Microsecond)
					running.Add(-1)
				})
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > W+K {
		t.Fatalf("%d chunk bodies ran at once, want at most W+K = %d", got, W+K)
	}
}
