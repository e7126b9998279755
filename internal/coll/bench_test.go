package coll

import "testing"

// The benchmark's two coll kernels that frame tool data (benchmark/
// kernels.go) as testing.B, at sample_loop's sizes: a 32 KiB broadcast cut
// into 4 KiB raw frames, and a 4096-rank gather's contributions (64 B to
// 1 KiB each) packed into 4 KiB entry chunks. Run with -benchmem.
const benchChunk = 4 << 10

var sinkFrames []Frame

func BenchmarkRawFrames(b *testing.B) {
	payload := make([]byte, 32<<10)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		sinkFrames = RawFrames(OpBroadcast, MinUserTag, "", payload, benchChunk)
	}
}

func BenchmarkPacker(b *testing.B) {
	entries := make([]Entry, 4096)
	for i := range entries {
		entries[i] = Entry{Rank: i, Blob: make([]byte, 64+i*960/len(entries))}
	}
	frames := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := Packer{Op: OpGather, Tag: 1, ChunkBytes: benchChunk, Emit: func(Frame) error {
			frames++
			return nil
		}}
		for _, e := range entries {
			if err := p.Add(e); err != nil {
				b.Fatal(err)
			}
		}
		if err := p.End(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(entries)), "ns/entry")
}
