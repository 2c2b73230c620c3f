package sched

import (
	"testing"

	"nfvxai/internal/testutil/leakcheck"
)

// TestMain fails the package when a goroutine ParallelFor started
// outlives the tests: helpers are call-scoped, so none may remain.
func TestMain(m *testing.M) { leakcheck.Main(m) }
