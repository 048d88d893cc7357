//go:build race

package trace

// raceEnabled reports that this build carries race-detector
// instrumentation, which adds allocations the gates must not count.
const raceEnabled = true
