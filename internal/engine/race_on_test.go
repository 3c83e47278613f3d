//go:build race

package engine_test

// raceEnabled: the race detector slows and perturbs scheduling, so the
// CPU-time assertions are skipped under it.
const raceEnabled = true
