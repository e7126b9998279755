package bench

// Host-memory model of the K-scaled sweeps: a row builds its whole
// simulated cluster in this process, so lmonbench predicts its footprint
// and prints a skipped-row line for one that exceeds the memory limit
// (GOMEMLIMIT, else DefaultMemLimit) instead of being OOM-killed halfway.

// DefaultMemLimit caps a row's footprint when GOMEMLIMIT is unset. Every
// cut-through sweep fits it to K=16384; the store-forward launch row's K
// private copies of the K-entry RPDTAB fit at K=4096 (0.9 GB) and not at
// K=8192 (3.8 GB; 15.1 GB at K=16384).
const DefaultMemLimit int64 = 2 << 30

// simBytesPerNode is the simulator's host cost per simulated node on a
// full rig, rounded up from the hungriest sweep at K=16384 (-contention:
// 1112 MB peak RSS, 68 KB/node; EXPERIMENTS.md "Host footprint").
const simBytesPerNode = 96 << 10

// tableBytesPerEntry is proctab.Table.MemBytes per RPDTAB entry (922,781 B
// over 16384 entries at K=16384), rounded up.
const tableBytesPerEntry = 57

// simFootprint predicts the host bytes a sweep row over the given number
// of simulated nodes keeps live.
func simFootprint(nodes int) int64 { return int64(nodes) * simBytesPerNode }

// fullTableFootprint predicts the host bytes of the K private full-table
// copies a store-forward launch of k daemons holds at once.
func fullTableFootprint(k, tasksPerNode int) int64 {
	return int64(k) * int64(k*tasksPerNode) * tableBytesPerEntry
}
