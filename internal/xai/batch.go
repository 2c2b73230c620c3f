package xai

import (
	"context"
	"fmt"
	"sync"

	"nfvxai/internal/sched"
)

// ExplainBatch explains every instance in xs with e, fanning the work
// out over the shared sched pool. Attributions are returned in input
// order. The explainer must be safe for concurrent use (the repository's
// explainers are: they keep no mutable state across Explain calls).
// The shared pool's size (sched.Configure) governs fan-out, and an
// explainer whose inner hot loops also use the pool composes with this
// outer layer instead of multiplying goroutines.
//
// All instances are attempted even when some fail; the first error (by
// input order) is returned alongside the successful attributions, with
// the failed slots left as zero values. When ctx is cancelled mid-batch,
// unstarted instances are skipped with the context error.
func ExplainBatch(ctx context.Context, e Explainer, xs [][]float64) ([]Attribution, error) {
	if len(xs) == 0 {
		return nil, nil
	}
	attrs := make([]Attribution, len(xs))
	errs := make([]error, len(xs))
	sched.ParallelFor(len(xs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			attrs[i], errs[i] = e.Explain(ctx, xs[i])
		}
	})
	return attrs, firstError(errs)
}

// ExplainBatchGated is ExplainBatch drawing workers from gate, a shared
// semaphore bounding explain concurrency across callers — a server uses
// one gate for all in-flight batch requests so K concurrent batches share
// cap(gate) workers instead of spawning K independent pools. Instances
// still waiting for a slot when ctx is cancelled are abandoned with the
// context error.
func ExplainBatchGated(ctx context.Context, e Explainer, xs [][]float64, gate chan struct{}) ([]Attribution, error) {
	attrs, errs := ExplainBatchGatedErrs(ctx, e, xs, gate)
	return attrs, firstError(errs)
}

// ExplainBatchGatedErrs is ExplainBatchGated returning the per-instance
// errors instead of collapsing them to the first one. The serving layer
// uses it for deadline-budgeted batches, where some instances completing
// and others timing out is a partial success to report per item, not a
// request-level failure. errs is nil when xs is empty; otherwise
// len(errs) == len(xs) and errs[i] == nil marks a valid attrs[i].
func ExplainBatchGatedErrs(ctx context.Context, e Explainer, xs [][]float64, gate chan struct{}) ([]Attribution, []error) {
	if len(xs) == 0 {
		return nil, nil
	}
	attrs := make([]Attribution, len(xs))
	errs := make([]error, len(xs))
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	GatedEach(ctx, gate, idx, errs, func(i int) {
		attrs[i], errs[i] = e.Explain(ctx, xs[i])
	})
	return attrs, errs
}

// GatedEach calls fn(i) for every i in idx, each on its own goroutine
// that holds one slot of gate while fn runs, and returns once all of
// them have finished. gate is a semaphore shared across callers, so
// concurrent batches share cap(gate) slots. An item still waiting for a
// slot when ctx is done is abandoned: fn never runs for it, and errs[i]
// is set to ctx.Err() when errs is non-nil.
func GatedEach(ctx context.Context, gate chan struct{}, idx []int, errs []error, fn func(i int)) {
	var wg sync.WaitGroup
	for _, i := range idx {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case gate <- struct{}{}:
			case <-ctx.Done():
				if errs != nil {
					errs[i] = ctx.Err()
				}
				return
			}
			defer func() { <-gate }()
			fn(i)
		}()
	}
	wg.Wait()
}

func firstError(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("xai: explaining instance %d: %w", i, err)
		}
	}
	return nil
}
