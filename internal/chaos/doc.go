// Package chaos hosts the end-to-end fault-injection suite for the
// resilience plane: the full serving stack (registry, admission control,
// budgeted explainers, feeds) is exercised over a deliberately faulty
// store (FSBlob ← registry.ChaosBlob ← RetryBlob ← Store ← Registry) and
// faulty telemetry feeds (feed.Fault), and the suite asserts the
// invariants the planes promise under failure — every response is
// either a valid (possibly degraded or partial) result or a typed
// 4xx/5xx, persistence failures never gate inference traffic, hot swaps
// never wedge, and no goroutine outlives its test.
//
// The package has no production code; it exists so `go test ./...` (and
// the CI chaos smoke step, which runs it under -race against a 20%%
// store error rate) picks the suite up as a first-class package.
package chaos
