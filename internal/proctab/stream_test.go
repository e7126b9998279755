package proctab

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"launchmon/internal/lmonp"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

func synthTable(n int) Table {
	t := make(Table, 0, n)
	for i := 0; i < n; i++ {
		t = append(t, ProcDesc{
			Host: fmt.Sprintf("node%d", i/8),
			Exe:  "app",
			Pid:  1000 + i,
			Rank: i,
		})
	}
	return t
}

func TestEncodeChunksReassembles(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 500} {
		for _, maxBytes := range []int{0, 64, 256, 1 << 20} {
			tab := synthTable(n)
			chunks := tab.EncodeChunks(maxBytes)
			if len(chunks) == 0 {
				t.Fatalf("n=%d max=%d: no chunks", n, maxBytes)
			}
			var asm Assembler
			for _, c := range chunks {
				if err := asm.Add(c); err != nil {
					t.Fatalf("n=%d max=%d: %v", n, maxBytes, err)
				}
			}
			got, err := asm.Finish(n)
			if err != nil {
				t.Fatalf("n=%d max=%d: finish: %v", n, maxBytes, err)
			}
			if n == 0 {
				if len(got) != 0 {
					t.Fatalf("n=0: got %d entries", len(got))
				}
				continue
			}
			if !reflect.DeepEqual(got, tab) {
				t.Fatalf("n=%d max=%d: reassembly mismatch", n, maxBytes)
			}
		}
	}
}

func TestEncodeChunksBoundedAtMillionTasks(t *testing.T) {
	if testing.Short() {
		t.Skip("million-task table in -short mode")
	}
	const tasks = 1 << 20 // 1M tasks, 8 per node
	const maxBytes = DefaultChunkBytes
	tab := synthTable(tasks)
	whole := len(tab.Encode())
	chunks := tab.EncodeChunks(maxBytes)
	if len(chunks) < whole/maxBytes {
		t.Fatalf("%d chunks cannot cover %d encoded bytes at %d bytes/chunk", len(chunks), whole, maxBytes)
	}
	total := 0
	for i, c := range chunks {
		if len(c) > maxBytes {
			t.Fatalf("chunk %d is %d bytes, exceeds configured %d", i, len(c), maxBytes)
		}
		total += len(c)
	}
	// Chunking costs only duplicated pool strings, not entry blowup.
	if total > whole+whole/4 {
		t.Fatalf("chunked total %d far above monolithic %d", total, whole)
	}
	var asm Assembler
	for _, c := range chunks {
		if err := asm.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := asm.Finish(tasks); err != nil {
		t.Fatal(err)
	}
}

func TestAssemblerFinishRejectsMismatch(t *testing.T) {
	tab := synthTable(16)
	var asm Assembler
	for _, c := range tab.EncodeChunks(64) {
		if err := asm.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := asm.Finish(15); err == nil {
		t.Error("short total accepted")
	}
	var dup Assembler
	chunk := synthTable(4).Encode()
	if err := dup.Add(chunk); err != nil {
		t.Fatal(err)
	}
	if err := dup.Add(chunk); err != nil {
		t.Fatal(err)
	}
	// Duplicate ranks must be caught by Validate at Finish.
	if _, err := dup.Finish(8); err == nil {
		t.Error("duplicate-rank reassembly accepted")
	}
}

func TestSendRecvStream(t *testing.T) {
	sim := vtime.New()
	net := simnet.New(sim, simnet.Options{})
	l, err := net.Host("a").Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	tab := synthTable(100)
	var got Table
	var recvErr error
	sim.Go("recv", func() {
		raw, err := l.Accept()
		if err != nil {
			recvErr = err
			return
		}
		got, recvErr = RecvStream(lmonp.NewConn(raw), lmonp.ClassFEBE)
	})
	sim.Go("send", func() {
		raw, err := net.Host("b").Dial(simnet.Addr{Host: "a", Port: l.Addr().Port})
		if err != nil {
			t.Error(err)
			return
		}
		w, end := StreamTo(lmonp.NewConn(raw), lmonp.ClassFEBE, 256)
		if err := w.AddTable(tab); err != nil {
			t.Error(err)
		}
		if err := end(); err != nil {
			t.Error(err)
		}
	})
	sim.Run()
	if recvErr != nil {
		t.Fatal(recvErr)
	}
	if !reflect.DeepEqual(got, tab) {
		t.Fatal("stream roundtrip mismatch")
	}
}

// referenceEncode, referenceDecode and referenceChunks are the codec as it
// stood before the table stayed in wire form between its two ends — Encode
// building an entry buffer beside a closure-interned pool, Decode
// materializing as it checks, ChunkWriter holding its pending chunk as a
// Table and encoding that — kept as what the differential tests and
// FuzzWireMatchesTable compare the wire-level codec against, byte for byte
// and error string for error string.
func referenceEncode(t Table) []byte {
	pool := make([]string, 0, 16)
	index := make(map[string]uint32)
	intern := func(s string) uint32 {
		if i, ok := index[s]; ok {
			return i
		}
		i := uint32(len(pool))
		index[s] = i
		pool = append(pool, s)
		return i
	}
	entries := make([]byte, 0, len(t)*16)
	for _, d := range t {
		entries = lmonp.AppendUint32(entries, intern(d.Host))
		entries = lmonp.AppendUint32(entries, intern(d.Exe))
		entries = lmonp.AppendUint32(entries, uint32(d.Pid))
		entries = lmonp.AppendUint32(entries, uint32(d.Rank))
	}
	out := lmonp.AppendStringList(nil, pool)
	out = lmonp.AppendUint32(out, uint32(len(t)))
	return append(out, entries...)
}

func referenceDecode(b []byte) (Table, error) {
	r := lmonp.NewReader(b)
	pool := r.StringList()
	n := r.Count(entryBytes)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("proctab: pool and count: %w", err)
	}
	t := make(Table, 0, n)
	for i := 0; i < n; i++ {
		hi, ei, pid, rank := r.Uint32(), r.Uint32(), r.Uint32(), r.Uint32()
		if int(hi) >= len(pool) || int(ei) >= len(pool) {
			return nil, fmt.Errorf("proctab: entry %d: pool index out of range", i)
		}
		if pid > math.MaxInt32 {
			return nil, fmt.Errorf("proctab: entry %d: pid %d overflows", i, pid)
		}
		if rank > math.MaxInt32 {
			return nil, fmt.Errorf("proctab: entry %d: rank %d overflows", i, rank)
		}
		t = append(t, ProcDesc{Host: pool[hi], Exe: pool[ei], Pid: int(pid), Rank: int(rank)})
	}
	return t, nil
}

// chunkStream is what a chunk writer put out.
type chunkStream struct {
	chunks [][]byte
	sums   []uint64
	digest uint64
	count  int
}

func referenceChunks(t Table, maxBytes int) chunkStream {
	if maxBytes <= 0 {
		maxBytes = DefaultChunkBytes
	}
	out := chunkStream{digest: lmonp.SumInit}
	var pend Table
	size, pooled := chunkOverhead, make(map[string]bool)
	flush := func() {
		chunk := referenceEncode(pend)
		sum := lmonp.Sum64(chunk)
		out.chunks, out.sums = append(out.chunks, chunk), append(out.sums, sum)
		out.digest = lmonp.FoldSum(out.digest, sum)
		pend, size = pend[:0], chunkOverhead
		clear(pooled)
	}
	for _, d := range t {
		add := entryBytes
		if !pooled[d.Host] {
			add += 4 + len(d.Host)
		}
		if !pooled[d.Exe] && d.Exe != d.Host {
			add += 4 + len(d.Exe)
		}
		if len(pend) > 0 && size+add > maxBytes {
			flush()
			add = entryBytes + 4 + len(d.Host)
			if d.Exe != d.Host {
				add += 4 + len(d.Exe)
			}
		}
		pooled[d.Host], pooled[d.Exe] = true, true
		size += add
		pend = append(pend, d)
		out.count++
	}
	if len(pend) > 0 || len(out.chunks) == 0 {
		flush()
	}
	return out
}

// writeChunks runs feed against a ChunkWriter of the given bound.
func writeChunks(t *testing.T, maxBytes int, feed func(w *ChunkWriter) error) chunkStream {
	t.Helper()
	var out chunkStream
	w := NewChunkWriter(maxBytes, func(chunk []byte, sum uint64) error {
		out.chunks, out.sums = append(out.chunks, chunk), append(out.sums, sum)
		return nil
	})
	if err := feed(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out.digest, out.count = w.Digest(), w.Count()
	return out
}

func (got chunkStream) mustEqual(t *testing.T, want chunkStream, what string) {
	t.Helper()
	if len(got.chunks) != len(want.chunks) {
		t.Fatalf("%s: %d chunks, reference %d", what, len(got.chunks), len(want.chunks))
	}
	for i := range got.chunks {
		if !bytes.Equal(got.chunks[i], want.chunks[i]) {
			t.Fatalf("%s: chunk %d differs from the reference\n got  %x\n want %x", what, i, got.chunks[i], want.chunks[i])
		}
		if got.sums[i] != want.sums[i] {
			t.Fatalf("%s: chunk %d sum %#x, reference %#x", what, i, got.sums[i], want.sums[i])
		}
	}
	if got.digest != want.digest || got.count != want.count {
		t.Fatalf("%s: digest %#x count %d, reference %#x %d", what, got.digest, got.count, want.digest, want.count)
	}
}

// randomTable draws a table whose strings repeat the way real ones do (runs
// of tasks per host, a few executables) and also the ways they should not:
// an executable named like a host, an empty name, one very long name.
func randomTable(rng *rand.Rand, n int) Table {
	hosts := []string{"n0", "n1", "node-with-a-long-name-2", "", "app", "n5"}
	exes := []string{"app", "app", "app", "n1", "", "solver"}
	if rng.Intn(4) == 0 {
		hosts = append(hosts, string(bytes.Repeat([]byte("h"), 300)))
	}
	t := make(Table, n)
	host := hosts[rng.Intn(len(hosts))]
	for i := range t {
		if rng.Intn(5) == 0 {
			host = hosts[rng.Intn(len(hosts))]
		}
		t[i] = ProcDesc{Host: host, Exe: exes[rng.Intn(len(exes))], Pid: rng.Intn(1 << 20), Rank: rng.Intn(1 << 20)}
	}
	return t
}

// TestWireCodecMatchesReference holds every producer of the wire form to
// the reference, byte for byte: Table.Encode, a ChunkWriter fed entries
// (Add), records (AddRaw) or scanned chunks (AddChunk) — chunk boundaries,
// sums, digest and count — and the byte-level merge, on random tables under
// bounds from "less than one entry" to "everything in one chunk".
func TestWireCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tables := []Table{nil, synthTable(1), synthTable(500),
		{{Host: "same", Exe: "same", Pid: 1, Rank: 0}, {Host: "other", Exe: "same", Pid: 2, Rank: 1}},
		{{Host: string(bytes.Repeat([]byte("x"), 200)), Exe: "e", Pid: 1, Rank: 0}, {Host: "h", Exe: "e", Pid: 2, Rank: 1}}, // one entry larger than the small bounds
	}
	for i := 0; i < 40; i++ {
		tables = append(tables, randomTable(rng, rng.Intn(300)))
	}
	for ti, tab := range tables {
		whole := referenceEncode(tab)
		if got := tab.Encode(); !bytes.Equal(got, whole) {
			t.Fatalf("table %d: Encode differs from the reference", ti)
		}
		for _, bound := range []int{0, 1, 16, 24, 40, 64, 97, 256, 4096, 1 << 20} {
			what := fmt.Sprintf("table %d bound %d", ti, bound)
			want := referenceChunks(tab, bound)
			writeChunks(t, bound, func(w *ChunkWriter) error { return w.AddTable(tab) }).mustEqual(t, want, what+" AddTable")
			writeChunks(t, bound, func(w *ChunkWriter) error {
				for _, d := range tab {
					if err := w.AddRaw(d.Host, d.Exe, uint32(d.Pid), uint32(d.Rank)); err != nil {
						return err
					}
				}
				return nil
			}).mustEqual(t, want, what+" AddRaw")
			// Re-chunking: the same table arriving as chunks cut at another bound.
			writeChunks(t, bound, func(w *ChunkWriter) error {
				for _, enc := range referenceChunks(tab, 80).chunks {
					c, err := Scan(enc)
					if err != nil {
						return err
					}
					w.Grow(c.Len())
					if err := w.AddChunk(c); err != nil {
						return err
					}
				}
				return nil
			}).mustEqual(t, want, what+" AddChunk")
		}
		// The merge of the table's pieces is the table's encoding.
		var parts []Chunk
		for _, enc := range referenceChunks(tab, 120).chunks {
			c, err := Scan(enc)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, c)
		}
		if got := AppendMerged([]byte("pre"), parts...); !bytes.Equal(got, append([]byte("pre"), whole...)) {
			t.Fatalf("table %d: AppendMerged differs from the reference encoding", ti)
		}
		// So is a chunk built by hand, whatever it pooled twice.
		var hand Chunk
		for _, d := range tab {
			hand.Append(d.Host, d.Exe, uint32(d.Pid), uint32(d.Rank))
		}
		if got := AppendMerged(nil, hand); !bytes.Equal(got, whole) {
			t.Fatalf("table %d: a hand-built chunk merges to other bytes than the reference encoding", ti)
		}
	}
}
