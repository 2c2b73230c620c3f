//go:build race

package core

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of the values put back, so pooled scratch (sched's
// helper contexts and their arenas) is rebuilt at random and allocation
// counts stop being repeatable.
const raceEnabled = true
