//go:build race

package core

// raceEnabled lets the MemStats-based guards skip under the race detector,
// whose instrumentation allocates and retains on the tests' behalf.
const raceEnabled = true
