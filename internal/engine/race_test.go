//go:build race

package engine

// raceEnabled reports whether the race detector instruments this test
// binary, which skews wall-clock guards (see TestTelemetryOverhead).
const raceEnabled = true
