//go:build race

package server

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so pooled-scratch allocation budgets do not hold.
const raceEnabled = true
