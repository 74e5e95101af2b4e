//go:build race

package snapshot_test

// raceEnabled reports that the race detector is active. Allocation
// counts skip themselves then: the detector's instrumentation adds
// about two allocations per restored bucket of its own, which would
// swamp what the counts check.
const raceEnabled = true
