// Package sched is the shared compute pool behind every data-parallel
// hot loop: generic batch prediction, forest/GBT ensemble sharding, the
// MLP forward pass, and the xai batch plane all fan out through one pool
// instead of each spawning its own GOMAXPROCS goroutines. That solves
// the composition problem the ad-hoc fan-outs had — a KernelSHAP explain
// inside a batch explain inside a serving goroutine no longer multiplies
// goroutine counts. The pool only fans out: kernels keep their per-chunk
// scratch in their own sync.Pools.
//
// Helpers are call-scoped. A pool holds Workers() helper tokens in a
// buffered channel; ParallelFor takes whichever are idle without
// blocking, starts one goroutine per token, and waits for them before it
// returns. No goroutine started here outlives the call that started it,
// so a pool needs no shutdown, and because a pool owns exactly Workers()
// tokens, at most that many helpers run at once however calls overlap
// or nest.
//
// Deadlock-freedom: the caller claims chunks alongside its helpers, and
// nothing ever waits for a token. A nested call that finds every token
// lent out (its parent's helpers hold them) runs all of its chunks
// inline on the spot.
//
// Determinism: chunks are contiguous index ranges and each chunk writes
// only its own range, so execution order never affects results — the
// bit-identical PredictBatch↔Predict contract survives the pool.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds the helpers that ParallelFor calls may start.
type Pool struct {
	idle chan struct{} // helper tokens not lent to a call; cap is the pool size
}

// New builds a pool of n helpers (n <= 0 selects GOMAXPROCS).
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{idle: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		p.idle <- struct{}{}
	}
	return p
}

var (
	defaultPool atomic.Pointer[Pool]
	configureMu sync.Mutex
)

// Default returns the process-wide pool, creating a GOMAXPROCS-sized
// one on first use.
func Default() *Pool {
	if p := defaultPool.Load(); p != nil {
		return p
	}
	configureMu.Lock()
	defer configureMu.Unlock()
	if p := defaultPool.Load(); p != nil {
		return p
	}
	p := New(0)
	defaultPool.Store(p)
	return p
}

// Configure replaces the default pool with one of the given size
// (workers <= 0 selects GOMAXPROCS), before or after first use; calls
// in flight on the old pool finish on it. pin is ignored: helpers live
// only as long as one call, so there is no long-lived goroutine to lock
// to an OS thread.
func Configure(workers int, pin bool) {
	configureMu.Lock()
	defer configureMu.Unlock()
	defaultPool.Store(New(workers))
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return cap(p.idle) }

// ParallelFor runs fn over contiguous chunks covering [0, n). minChunk
// bounds the smallest chunk worth dispatching (<= 0 selects 1): work
// below 2×minChunk runs inline on the caller. fn must treat [lo, hi) as
// its exclusive write range. The caller's goroutine claims chunks too,
// so ParallelFor may be called from inside a chunk (nested parallel
// layers compose instead of deadlocking); fn must therefore not hold
// locks that another chunk of the same call might take. Every helper
// goroutine has finished by the time ParallelFor returns.
func (p *Pool) ParallelFor(n, minChunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minChunk <= 0 {
		minChunk = 1
	}
	workers := cap(p.idle)
	if n < 2*minChunk || workers <= 1 {
		fn(0, n)
		return
	}
	// Chunk size: enough chunks for the pool plus the caller, floored at
	// minChunk so tiny tails don't become dispatch overhead.
	size := (n + workers) / (workers + 1)
	if size < minChunk {
		size = minChunk
	}
	var next atomic.Int64
	claim := func() {
		for {
			lo := int(next.Add(int64(size))) - size
			if lo >= n {
				return
			}
			fn(lo, min(lo+size, n))
		}
	}
	var wg sync.WaitGroup
	// One helper per chunk past the caller's, as far as idle tokens go.
borrow:
	for i := size; i < n; i += size {
		select {
		case <-p.idle:
			wg.Add(1)
			go func() {
				defer wg.Done()
				claim()
				p.idle <- struct{}{}
			}()
		default:
			break borrow
		}
	}
	claim()
	wg.Wait()
}

// ParallelFor runs fn over the default pool; see Pool.ParallelFor.
func ParallelFor(n, minChunk int, fn func(lo, hi int)) {
	Default().ParallelFor(n, minChunk, fn)
}
