// Package sched is the shared compute pool behind every data-parallel
// hot loop: generic batch prediction, forest/GBT ensemble sharding, and
// the xai batch plane all fan out through one pool instead of each
// spawning its own GOMAXPROCS goroutines. That solves the composition
// problem the ad-hoc fan-outs had — a KernelSHAP explain inside a batch
// explain inside a serving goroutine no longer multiplies goroutine
// counts — and gives every worker a reusable arena so per-chunk scratch
// stops hitting the heap.
//
// Helpers are call-scoped. A pool holds Workers() idle Worker contexts,
// arenas included, in a buffered channel; ParallelFor borrows whichever
// are idle without blocking, starts one goroutine per borrowed context,
// and waits for them before it returns. The calling goroutine takes its
// own context from a second, bounded free list. No goroutine started here
// outlives the call that started it, so a pool needs no shutdown, and
// because a pool owns exactly Workers() contexts, at most that many
// helpers run at once however calls overlap or nest.
//
// Deadlock-freedom: the caller claims chunks alongside its helpers, and
// nothing ever waits for a context. A nested call that finds every
// context lent out (its parent's helpers hold them) runs all of its
// chunks inline on the spot.
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

// Worker is the per-goroutine execution context handed to every chunk:
// a small arena of reusable scratch slices keyed by slot, so kernels can
// carve per-chunk buffers without allocating in steady state. Two chunks
// of one call can run on the same Worker.
type Worker struct {
	f64 [][]float64
}

// Floats returns a float64 scratch slice of length n for the given
// slot, reusing the worker's arena. Contents are undefined; callers
// must fully overwrite (or clear) before reading. Distinct slots never
// alias.
func (w *Worker) Floats(slot, n int) []float64 {
	for len(w.f64) <= slot {
		w.f64 = append(w.f64, nil)
	}
	if cap(w.f64[slot]) < n {
		w.f64[slot] = make([]float64, n)
	}
	w.f64[slot] = w.f64[slot][:n]
	return w.f64[slot]
}

// Pool bounds the helpers that ParallelFor calls may borrow.
type Pool struct {
	idle   chan *Worker // helper contexts not lent to a call; cap is the pool size
	caller chan *Worker // free list of contexts for participating callers
}

// New builds a pool of n helper contexts (n <= 0 selects GOMAXPROCS).
//
// The caller free list holds 3n contexts. A two-level call (the
// standardizing model wrapper over its inner model) holds one for the
// outer caller and one for each inner caller, which run on its helpers
// and on the outer caller's goroutine: n+2 when it has the pool to
// itself, and 2K+n for K such calls at once, since they share the n
// helpers. 3n covers n concurrent calls, the serving layer's default
// per-model in-flight limit, so their arenas are reused, not rebuilt.
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{idle: make(chan *Worker, n), caller: make(chan *Worker, 3*n)}
	for i := 0; i < n; i++ {
		p.idle <- new(Worker)
	}
	return p
}

// callerWorker takes a caller context off the free list, or makes one
// when the list is empty.
func (p *Pool) callerWorker() *Worker {
	select {
	case w := <-p.caller:
		return w
	default:
		return new(Worker)
	}
}

// releaseCaller returns a caller context to the free list, or drops it
// when the list is full.
func (p *Pool) releaseCaller(w *Worker) {
	select {
	case p.caller <- w:
	default:
	}
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
func (p *Pool) ParallelFor(n, minChunk int, fn func(w *Worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if minChunk <= 0 {
		minChunk = 1
	}
	workers := cap(p.idle)
	if n < 2*minChunk || workers <= 1 {
		p.Inline(n, fn)
		return
	}
	w := p.callerWorker()
	defer p.releaseCaller(w)
	// Chunk size: enough chunks for the pool plus the caller, floored at
	// minChunk so tiny tails don't become dispatch overhead.
	size := (n + workers) / (workers + 1)
	if size < minChunk {
		size = minChunk
	}
	var next atomic.Int64
	claim := func(w *Worker) {
		for {
			lo := int(next.Add(int64(size))) - size
			if lo >= n {
				return
			}
			fn(w, lo, min(lo+size, n))
		}
	}
	var wg sync.WaitGroup
	// One helper per chunk past the caller's, as far as idle contexts go.
borrow:
	for i := size; i < n; i += size {
		select {
		case h := <-p.idle:
			wg.Add(1)
			go func() {
				defer wg.Done()
				claim(h)
				p.idle <- h
			}()
		default:
			break borrow
		}
	}
	claim(w)
	wg.Wait()
}

// ParallelFor runs fn over the default pool; see Pool.ParallelFor.
func ParallelFor(n, minChunk int, fn func(w *Worker, lo, hi int)) {
	Default().ParallelFor(n, minChunk, fn)
}

// Inline runs fn over [0, n) as one chunk on the calling goroutine,
// with a caller context from the pool's free list: what ParallelFor
// does with work below 2×minChunk. Unlike ParallelFor's, Inline's fn
// does not escape, so a closure passed to it can stay on the caller's
// stack; a kernel that knows its batch is one chunk calls Inline and
// saves the heap allocation that ParallelFor's closure costs per call.
func (p *Pool) Inline(n int, fn func(w *Worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := p.callerWorker()
	defer p.releaseCaller(w)
	fn(w, 0, n)
}

// Inline runs fn over the default pool; see Pool.Inline.
func Inline(n int, fn func(w *Worker, lo, hi int)) {
	Default().Inline(n, fn)
}
