//go:build race

package cluster

// raceEnabled lets the MemStats-based guards skip under the race detector,
// whose instrumentation allocates and retains on the tests' behalf.
const raceEnabled = true
