package proctab

import (
	"math/rand"
	"testing"
)

// The benchmark's proctab kernels (benchmark/kernels.go) as testing.B, in
// its shapes — a launch_fat table, 256 consecutive ranks per host — plus
// the three a pass-through hop is made of: Scan, Repack (scan, route 33
// ways, flush: a seed router) and Merge (32 sub-tables into one: an
// interior slurmd). One op is one pass over benchEntries entries; ns/entry
// is the kernel pass's unit. Run with -benchmem: B/op over benchEntries is
// the allocation per entry.
const (
	benchEntries = 1 << 16
	benchPerHost = 256
)

func perEntry(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchEntries, "ns/entry")
}

var (
	sinkBytes []byte
	sinkTable Table
)

func BenchmarkEncode(b *testing.B) {
	tab := sampleTable(benchEntries/benchPerHost, benchPerHost)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBytes = tab.Encode()
	}
	perEntry(b)
}

func BenchmarkDecode(b *testing.B) {
	enc := sampleTable(benchEntries/benchPerHost, benchPerHost).Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if sinkTable, err = Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
	perEntry(b)
}

func BenchmarkScan(b *testing.B) {
	chunks := sampleTable(benchEntries/benchPerHost, benchPerHost).EncodeChunks(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range chunks {
			if _, err := Scan(c); err != nil {
				b.Fatal(err)
			}
		}
	}
	perEntry(b)
}

func BenchmarkChunkWrite(b *testing.B) {
	tab := sampleTable(benchEntries/benchPerHost, benchPerHost)
	var chunks [][]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunks = chunks[:0]
		w := NewChunkWriter(0, func(chunk []byte, _ uint64) error {
			chunks = append(chunks, chunk)
			return nil
		})
		if err := w.AddTable(tab); err != nil {
			b.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	perEntry(b)
}

func BenchmarkAssemble(b *testing.B) {
	chunks := sampleTable(benchEntries/benchPerHost, benchPerHost).EncodeChunks(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var a Assembler
		for _, c := range chunks {
			if err := a.Add(c); err != nil {
				b.Fatal(err)
			}
		}
		var err error
		if sinkTable, err = a.Finish(benchEntries); err != nil {
			b.Fatal(err)
		}
	}
	perEntry(b)
}

// BenchmarkRankOrder is the launcher's check of the fabric's reply, which
// arrives in completion order: here one host's tasks at a time, hosts
// shuffled.
func BenchmarkRankOrder(b *testing.B) {
	tab := sampleTable(benchEntries/benchPerHost, benchPerHost)
	rand.New(rand.NewSource(1)).Shuffle(len(tab)/benchPerHost, func(i, j int) {
		for k := 0; k < benchPerHost; k++ {
			tab[i*benchPerHost+k], tab[j*benchPerHost+k] = tab[j*benchPerHost+k], tab[i*benchPerHost+k]
		}
	})
	c, err := Scan(tab.Encode())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RankOrder(); err != nil {
			b.Fatal(err)
		}
	}
	perEntry(b)
}

// BenchmarkIndex is the front end's shared index of the whole table.
func BenchmarkIndex(b *testing.B) {
	tab := sampleTable(benchEntries/benchPerHost, benchPerHost)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildIndex(tab); err != nil {
			b.Fatal(err)
		}
	}
	perEntry(b)
}

// BenchmarkSlice is what every daemon does with its routed rank slice: one
// node's tasks, one chunk.
func BenchmarkSlice(b *testing.B) {
	tab := sampleTable(benchEntries/benchPerHost, benchPerHost)
	var slices [][]byte
	for lo := 0; lo < len(tab); lo += benchPerHost {
		slices = append(slices, tab[lo:lo+benchPerHost].Encode())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range slices {
			var a Assembler
			if err := a.Add(s); err != nil {
				b.Fatal(err)
			}
			var err error
			if sinkTable, err = a.FinishSlice(benchPerHost); err != nil {
				b.Fatal(err)
			}
		}
	}
	perEntry(b)
}

// BenchmarkRepack is an interior seed router's work on the table: every
// chunk scanned, each of its hosts given a stream (the router's own slice
// and 32 child subtrees: 33), the streams told what is coming, the entries
// dealt out as the records they are, every stream flushed at the end.
func BenchmarkRepack(b *testing.B) {
	const streams = 33
	chunks := sampleTable(benchEntries/benchPerHost, benchPerHost).EncodeChunks(0)
	emitted := 0
	var route, share []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var w [streams]*ChunkWriter
		for k := range w {
			w[k] = NewChunkWriter(0, func(chunk []byte, _ uint64) error {
				emitted += len(chunk)
				return nil
			})
		}
		hosts := 0 // hosts come in table order, so a running count names one
		for _, enc := range chunks {
			c, err := Scan(enc)
			if err != nil {
				b.Fatal(err)
			}
			pool := c.Pool()
			route, share = route[:0], append(share[:0], make([]int, streams)...)
			for range pool {
				route = append(route, -1)
			}
			for e, n := 0, c.Len(); e < n; e++ {
				host, _, _, _ := c.Entry(e)
				if route[host] < 0 {
					route[host], hosts = hosts%streams, hosts+1
				}
				share[route[host]]++
			}
			for k, n := range share {
				w[k].Grow(n)
			}
			for e, n := 0, c.Len(); e < n; e++ {
				host, exe, pid, rank := c.Entry(e)
				if err := w[route[host]].AddRaw(pool[host], pool[exe], pid, rank); err != nil {
					b.Fatal(err)
				}
			}
		}
		for k := range w {
			if err := w[k].Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
	perEntry(b)
}

// BenchmarkMerge is an interior slurmd's reply: 32 children's tables behind
// its own tasks, as one.
func BenchmarkMerge(b *testing.B) {
	const kids = 32
	tab := sampleTable(benchEntries/benchPerHost, benchPerHost)
	var local Chunk
	for _, d := range tab[:benchPerHost] {
		local.Append(d.Host, d.Exe, uint32(d.Pid), uint32(d.Rank))
	}
	per := (len(tab) - benchPerHost) / kids
	var subs [][]byte
	for k := 0; k < kids; k++ {
		lo := benchPerHost + k*per
		hi := lo + per
		if k == kids-1 {
			hi = len(tab)
		}
		subs = append(subs, tab[lo:hi].Encode())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := append(make([]Chunk, 0, 1+kids), local)
		for _, enc := range subs {
			c, err := Scan(enc)
			if err != nil {
				b.Fatal(err)
			}
			parts = append(parts, c)
		}
		sinkBytes = AppendMerged(nil, parts...)
	}
	perEntry(b)
}
