package iccl

import (
	"testing"

	"launchmon/internal/coll"
	"launchmon/internal/vtime"
)

// The seed stream as a kernel, on a bare tree of the shape the benchmark's
// ICCL kernels use (benchmark/kernels.go: no core, fanout 16):
//
//	go test -run '^$' -bench . -benchmem ./internal/iccl

// BenchmarkSeedRouted: one iteration forms a 3-level tree (273 ranks) while
// a routed seed — 16 tasks a node in 4 KiB chunks — streams down it: every
// rank's framer, engine and splitter, and every link's forwarder. B/op and
// allocs/op are the whole tree's; cluster construction is not timed.
func BenchmarkSeedRouted(b *testing.B) {
	const n, fanout = 1 + 16 + 16*16, 16
	frames, rt, tab := routedSeed(n, 16, 4<<10)
	b.ReportAllocs()
	b.SetBytes(int64(len(tab.Encode())))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl := seedCluster(b, vtime.New(), n)
		b.StartTimer()
		seedRig(b, cl, fanout, frames, rt, func(*Comm, []coll.Frame) error { return nil })
	}
}
