//go:build race

package lmonp

// raceEnabled lets the allocation guards skip under the race detector,
// whose instrumentation allocates on the tests' behalf.
const raceEnabled = true
