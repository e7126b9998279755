//go:build race

package slurm

// raceEnabled lets the allocation guard skip under the race detector,
// whose instrumentation allocates on the test's behalf.
const raceEnabled = true
