package proctab

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"launchmon/internal/lmonp"
)

func TestIndexRoundTrip(t *testing.T) {
	tab := synthTable(100)
	x, err := BuildIndex(tab)
	if err != nil {
		t.Fatal(err)
	}
	if x.ranks() != 100 {
		t.Fatalf("Len = %d", x.ranks())
	}
	if !reflect.DeepEqual(x.Table(), tab) {
		t.Fatal("Index.Table() does not round-trip")
	}
	if got, want := x.entry(42), tab[42]; got != want {
		t.Fatalf("Entry(42) = %+v, want %+v", got, want)
	}
	if x.MemBytes() <= 0 || x.MemBytes() >= tab.MemBytes() {
		t.Fatalf("index MemBytes %d should be positive and below table MemBytes %d", x.MemBytes(), tab.MemBytes())
	}
}

// TestIndexTableBytesIsMemBytes: the index's pool counts a string once
// however many entries use it, as host or as executable or both — what
// Table.MemBytes counts.
func TestIndexTableBytesIsMemBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 5, 40, 300} {
		tab := randomTable(rng, n)
		for i := range tab {
			tab[i].Rank = i
		}
		x, err := BuildIndex(tab)
		if err != nil {
			t.Fatal(err)
		}
		if x.TableBytes() != tab.MemBytes() {
			t.Errorf("%d entries: TableBytes %d, MemBytes %d", n, x.TableBytes(), tab.MemBytes())
		}
	}
}

func TestBuildIndexRejectsUnsorted(t *testing.T) {
	tab := synthTable(8)
	tab[0], tab[7] = tab[7], tab[0]
	if _, err := BuildIndex(tab); err == nil {
		t.Fatal("unsorted table accepted")
	}
	tab.SortByRank()
	if _, err := BuildIndex(tab); err != nil {
		t.Fatal(err)
	}
}

func TestChunkWriterMatchesEncodeChunks(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 500} {
		for _, maxBytes := range []int{0, 64, 256, 1 << 20} {
			tab := synthTable(n)
			want := tab.EncodeChunks(maxBytes)
			var got [][]byte
			w := NewChunkWriter(maxBytes, func(chunk []byte, sum uint64) error {
				if sum != lmonp.Sum64(chunk) {
					t.Fatalf("emitted sum %#x != Sum64(chunk)", sum)
				}
				got = append(got, chunk)
				return nil
			})
			if err := w.AddTable(tab); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d max=%d: writer emitted %d chunks, EncodeChunks %d", n, maxBytes, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("n=%d max=%d: chunk %d differs", n, maxBytes, i)
				}
			}
			if w.Count() != n {
				t.Fatalf("Count = %d, want %d", w.Count(), n)
			}
			// Writer digest must match an assembler fed the same chunks.
			var asm Assembler
			for _, c := range got {
				if err := asm.Add(c); err != nil {
					t.Fatal(err)
				}
			}
			if asm.streamDigest() != w.Digest() {
				t.Fatalf("digest mismatch: writer %#x, assembler %#x", w.Digest(), asm.streamDigest())
			}
		}
	}
}

func TestAssemblerFinishEdgeCases(t *testing.T) {
	// Zero-chunk finish: nothing added, total 0 is the only valid close.
	var empty Assembler
	if _, err := empty.Finish(0); err != nil {
		t.Fatalf("zero-chunk finish with total 0: %v", err)
	}
	var empty2 Assembler
	if _, err := empty2.Finish(3); err == nil {
		t.Error("zero-chunk finish with nonzero total accepted")
	}
	var empty3 Assembler
	if _, err := empty3.Finish(-1); err == nil {
		t.Error("negative total accepted")
	}

	// Total mismatch in both directions.
	tab := synthTable(16)
	for _, total := range []int{15, 17} {
		var asm Assembler
		for _, c := range tab.EncodeChunks(64) {
			if err := asm.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := asm.Finish(total); err == nil {
			t.Errorf("total %d accepted for 16-entry stream", total)
		}
	}

	// Duplicate final chunk: a replayed tail duplicates ranks, which must
	// fail validation even when the claimed total matches the entry count.
	chunks := tab.EncodeChunks(64)
	final := chunks[len(chunks)-1]
	finalEntries, err := Decode(final)
	if err != nil {
		t.Fatal(err)
	}
	var dup Assembler
	for _, c := range append(chunks, final) {
		if err := dup.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dup.Finish(16 + len(finalEntries)); err == nil {
		t.Error("duplicate final chunk accepted")
	}
}

func TestFinishSliceEdgeCases(t *testing.T) {
	// Zero-chunk finish mirrors Finish: total 0 is the only valid close.
	var empty Assembler
	if _, err := empty.FinishSlice(0); err != nil {
		t.Fatalf("zero-chunk finish with total 0: %v", err)
	}
	var empty2 Assembler
	if _, err := empty2.FinishSlice(2); err == nil {
		t.Error("zero-chunk finish with nonzero total accepted")
	}
	var empty3 Assembler
	if _, err := empty3.FinishSlice(-1); err == nil {
		t.Error("negative total accepted")
	}

	// A slice keeps its global ranks: sparse, increasing ranks that Finish
	// (dense 0..n-1) would reject must pass FinishSlice.
	sparse := Table{
		{Host: "n0", Exe: "app", Pid: 1, Rank: 5},
		{Host: "n1", Exe: "app", Pid: 2, Rank: 900},
	}
	var asm Assembler
	for _, c := range sparse.EncodeChunks(64) {
		if err := asm.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := asm.FinishSlice(2); err != nil {
		t.Fatalf("sparse increasing slice rejected: %v", err)
	}

	// Total mismatch in both directions.
	for _, total := range []int{1, 3} {
		var a Assembler
		for _, c := range sparse.EncodeChunks(64) {
			if err := a.Add(c); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := a.FinishSlice(total); err == nil {
			t.Errorf("total %d accepted for 2-entry slice", total)
		}
	}

	// A duplicated final chunk repeats ranks: strictly-increasing fails
	// even though the stream still decodes and the total matches.
	chunks := sparse.EncodeChunks(64)
	var dup Assembler
	for _, c := range append(chunks, chunks[len(chunks)-1]) {
		if err := dup.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dup.FinishSlice(2 + 2); err == nil {
		t.Error("duplicate final chunk accepted by FinishSlice")
	}
}

func TestValidateSlice(t *testing.T) {
	cases := []struct {
		name string
		tab  Table
		ok   bool
	}{
		{"empty", nil, true},
		{"sparse increasing", Table{
			{Host: "a", Exe: "x", Rank: 3}, {Host: "b", Exe: "x", Rank: 7},
		}, true},
		{"duplicate rank", Table{
			{Host: "a", Exe: "x", Rank: 3}, {Host: "b", Exe: "x", Rank: 3},
		}, false},
		{"decreasing rank", Table{
			{Host: "a", Exe: "x", Rank: 7}, {Host: "b", Exe: "x", Rank: 3},
		}, false},
		{"negative rank", Table{{Host: "a", Exe: "x", Rank: -1}}, false},
		{"empty host", Table{{Host: "", Exe: "x", Rank: 0}}, false},
		{"empty exe", Table{{Host: "a", Exe: "", Rank: 0}}, false},
	}
	for _, c := range cases {
		if err := c.tab.validateSlice(); (err == nil) != c.ok {
			t.Errorf("%s: ValidateSlice = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestRecvStreamRejectsCorruptDigest(t *testing.T) {
	// An end marker whose digest does not match the received chunks must
	// fail the stream even when the total matches.
	tab := synthTable(32)
	var asm Assembler
	for _, c := range tab.EncodeChunks(128) {
		if err := asm.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	total, digest, err := DecodeEndMarker(EncodeEndMarker(32, asm.streamDigest()))
	if err != nil || total != 32 || digest != asm.streamDigest() {
		t.Fatalf("end marker round-trip broken: %d %#x %v", total, digest, err)
	}
}
