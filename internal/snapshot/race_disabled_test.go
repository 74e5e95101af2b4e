//go:build !race

package snapshot_test

// raceEnabled mirrors race_enabled_test.go for regular builds.
const raceEnabled = false
