package proctab

import (
	"math/rand"
	"runtime"
	"testing"
)

// allocBytes returns what fn allocates per call, over runs calls.
func allocBytes(t *testing.T, runs int, fn func()) uint64 {
	if raceEnabled {
		t.Skip("the race detector allocates on the test's behalf")
	}
	var m0, m1 runtime.MemStats
	fn()
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs)
}

// TestScanAllocatesForThePoolNotTheEntries is the allocation guard of the
// pass-through hops: scanning a full 64 KiB chunk of 16 hosts allocates a
// handful of objects for its pool and not one byte for its 4 000 entries —
// the same bytes as scanning 16 entries over the same pool.
func TestScanAllocatesForThePoolNotTheEntries(t *testing.T) {
	full, few := sampleTable(16, 255).Encode(), sampleTable(16, 1).Encode()
	if len(full) < 63<<10 || len(full) > DefaultChunkBytes {
		t.Fatalf("the full chunk is %d bytes, want just under 64 KiB", len(full))
	}
	scan := func(enc []byte) func() {
		return func() {
			if _, err := Scan(enc); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := testing.AllocsPerRun(50, scan(full)); n > 2 {
		t.Errorf("Scan of a 16-host chunk allocates %v objects, want at most 2 (the pool and its backing string)", n)
	}
	if a, b := allocBytes(t, 50, scan(full)), allocBytes(t, 50, scan(few)); a != b {
		t.Errorf("Scan allocates %d B for %d entries and %d B for 16 over the same pool: %0.2f B per entry, want 0",
			a, 16*255, b, float64(a-b)/float64(16*254))
	}
}

// TestSmallPoolEncodeAllocatesNoIndex: a table of a few hosts — what a
// slurmd or a seed router writes — is encoded with its pool searched in
// order, so it costs the entry buffer, the pool's growth steps and the
// rendered bytes, and no map.
func TestSmallPoolEncodeAllocatesNoIndex(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the test's behalf")
	}
	tab := sampleTable(4, 8)
	if n := testing.AllocsPerRun(50, func() { tab.Encode() }); n > 6 {
		t.Errorf("encoding 4 hosts × 8 tasks allocates %v objects, want at most 6", n)
	}
}

// TestWarmChunkWriterAllocatesOneObjectPerChunk: a writer that has emitted
// before holds its entry buffer, pool and index, so a chunk costs the one
// exact-size buffer it is rendered into and nothing else.
func TestWarmChunkWriterAllocatesOneObjectPerChunk(t *testing.T) {
	tab := sampleTable(64, 64)
	chunks := 0
	w := NewChunkWriter(4<<10, func(chunk []byte, _ uint64) error {
		if len(chunk) != cap(chunk) {
			t.Errorf("chunk of %d bytes rendered into a buffer of %d", len(chunk), cap(chunk))
		}
		chunks++
		return nil
	})
	write := func() {
		if err := w.AddTable(tab); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	write()
	per := chunks
	if per < 10 {
		t.Fatalf("the table made %d chunks, want a good many", per)
	}
	if n := testing.AllocsPerRun(20, write); n != float64(per) {
		t.Errorf("a warm writer allocates %v objects for %d chunks, want one each", n, per)
	}
}

// TestRankOrderAllocatesOneSlice: checking a 65 536-entry chunk and ordering
// it by rank — what the launcher does with the fabric's reply in place of
// decoding, validating and sorting a table — allocates the rank-to-entry map
// and nothing else, 4 B an entry.
func TestRankOrderAllocatesOneSlice(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the test's behalf")
	}
	tab := sampleTable(256, 256)
	rand.New(rand.NewSource(1)).Shuffle(len(tab), func(i, j int) { tab[i], tab[j] = tab[j], tab[i] })
	c, err := Scan(tab.Encode())
	if err != nil {
		t.Fatal(err)
	}
	order := func() {
		if _, err := c.RankOrder(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(10, order); n != 1 {
		t.Errorf("RankOrder allocates %v objects, want 1", n)
	}
	if b := allocBytes(t, 10, order); b/uint64(len(tab)) != 4 {
		t.Errorf("RankOrder allocates %d B for %d entries, want 4 an entry", b, len(tab))
	}
}

// TestBuildIndexAllocatesNoMoreObjects: the index of a 65 536-entry table
// interns through the codec's pool and allocates no more objects than the 26
// its own map took.
func TestBuildIndexAllocatesNoMoreObjects(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the test's behalf")
	}
	tab := sampleTable(256, 256)
	n := testing.AllocsPerRun(5, func() {
		if _, err := BuildIndex(tab); err != nil {
			t.Fatal(err)
		}
	})
	if n > 26 {
		t.Errorf("BuildIndex of 256 hosts × 256 tasks allocates %v objects, want at most 26", n)
	}
}

// TestAssemblerAllocatesTheTableOnce: the receiving end keeps the chunks as
// they arrived and materializes at Finish, at the final size — not chunk by
// chunk into a table that outgrows itself.
func TestAssemblerAllocatesTheTableOnce(t *testing.T) {
	tab := sampleTable(64, 256)
	chunks := tab.EncodeChunks(8 << 10)
	table := uint64(len(tab)) * 48
	got := allocBytes(t, 10, func() {
		var a Assembler
		for _, c := range chunks {
			if err := a.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := a.Finish(len(tab)); err != nil {
			t.Fatal(err)
		}
	})
	if got > table+table/8 {
		t.Errorf("assembling %d entries allocates %d B, want the %d B table plus at most an eighth (pools, the list of chunks, Validate's marks)", len(tab), got, table)
	}
}
