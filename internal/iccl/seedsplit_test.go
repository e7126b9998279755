package iccl

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
	"launchmon/internal/proctab"
	"launchmon/internal/simnet"
)

// splitterRig is a seedSplitter on its own — rank 0 of a 21-rank tree of
// fanout 4, so four child streams and the local one — with a router that
// counts its lookups and re-packs into outBytes chunks, and the inBytes
// chunks of a table of perHost tasks on each of hosts nodes, each chunk as
// the seed frame the splitter is handed.
type splitterRig struct {
	s       *seedSplitter
	f       *Forming // whose children have not joined: it holds what it is forwarded
	local   int      // chunk bytes handed to the local consumer since the last drain
	lookups int
	frames  []coll.Frame
}

const rigSize, rigFanout = 21, 4

// rigTable is the table of a splitterRig: perHost tasks on each of hosts
// nodes, host nodeK owned by rank K mod rigSize.
func rigTable(hosts, perHost int) proctab.Table {
	var tab proctab.Table
	for i := 0; i < hosts*perHost; i++ {
		tab = append(tab, proctab.ProcDesc{Host: fmt.Sprintf("node%d", i/perHost), Exe: "app", Pid: 100 + i%perHost, Rank: i})
	}
	return tab
}

func rigRankOf(host string) (int, bool) {
	num, ok := strings.CutPrefix(host, "node")
	rk, err := strconv.Atoi(num)
	return rk % rigSize, ok && err == nil
}

func newSplitterRig(hosts, perHost, inBytes, outBytes int) *splitterRig {
	r := &splitterRig{}
	tab := rigTable(hosts, perHost)
	rt := &SeedRouter{ChunkBytes: outBytes, RankOf: func(host string) (int, bool) {
		r.lookups++
		return rigRankOf(host)
	}}
	f := NewForming(nil, Config{Rank: 0, Size: rigSize, Fanout: rigFanout}, rt, func(f coll.Frame, _ proctab.Chunk) error {
		r.local += len(f.Body)
		return nil
	}, nil)
	f.c.children = make([]*simnet.Conn, rigFanout)
	r.f, r.s = f, f.router.(*seedSplitter)
	for i, body := range tab.EncodeChunks(inBytes) {
		r.frames = append(r.frames, coll.Frame{H: coll.Header{Op: coll.OpSeed, Index: uint32(i + 1)}, Body: body, Sum: lmonp.Sum64(body)})
	}
	return r
}

// drain empties what the seed holds for the children and returns the bytes
// of what the splitter had emitted: chunk bodies on the local stream, link
// messages on the others.
func (r *splitterRig) drain() (local, links int) {
	local, r.local = r.local, 0
	for slot, held := range r.f.held {
		for _, msg := range held {
			links += len(msg)
		}
		r.f.held[slot] = held[:0]
	}
	return local, links
}

// TestSeedSplitterRoutesOncePerHost: the router is asked where a host's
// entries go once per host of a chunk — not once per entry, and not for a
// pooled string (the executable) that no entry names as its host.
func TestSeedSplitterRoutesOncePerHost(t *testing.T) {
	const hosts, perHost = 42, 64
	r := newSplitterRig(hosts, perHost, 4<<10, 4<<10)
	if len(r.frames) < 8 {
		t.Fatalf("the table made %d chunks, want several", len(r.frames))
	}
	total := 0
	for i, f := range r.frames {
		c, err := proctab.Scan(f.Body)
		if err != nil {
			t.Fatal(err)
		}
		distinct := map[uint32]bool{}
		for e := 0; e < c.Len(); e++ {
			h, _, _, _ := c.Entry(e)
			distinct[h] = true
		}
		before := r.lookups
		if err := r.s.chunk(f); err != nil {
			t.Fatal(err)
		}
		if got := r.lookups - before; got != len(distinct) {
			t.Errorf("chunk %d: %d entries on %d hosts took %d RankOf calls, want one per host", i, c.Len(), len(distinct), got)
		}
		total += c.Len()
	}
	end := coll.Frame{H: coll.Header{Op: coll.OpSeed, Index: uint32(len(r.frames) + 1)}, End: true, Total: uint64(total)}
	if err := r.s.finish(end); err != nil {
		t.Fatal(err)
	}
	if total != hosts*perHost || r.lookups >= total/8 {
		t.Errorf("%d entries routed with %d lookups", total, r.lookups)
	}
}

// TestSeedSplitterAllocatesLittleBeyondItsChunks is the allocation guard of
// the re-packing hop: once its streams hold their buffers, a splitter
// routing a full chunk (4 000 entries on 16 hosts) allocates what it emits —
// the local chunk, and each child's chunk rendered once, into the link
// message it travels in — plus the scanned pools, and under 4 bytes per
// entry besides. (A materialized entry alone was 48, before any buffer it
// was appended to.)
func TestSeedSplitterAllocatesLittleBeyondItsChunks(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the test's behalf")
	}
	// The outgoing bound keeps a chunk and the link message around it in one
	// allocator size class (56 KiB), so rounding does not pass for allocation
	// and a second rendering shows.
	r := newSplitterRig(16, 255, 64<<10, 56<<10-64)
	if len(r.frames) != 1 {
		t.Fatalf("the table made %d chunks, want one full one", len(r.frames))
	}
	f := r.frames[0]
	entries := 16 * 255
	for i := 0; i < 8; i++ { // every stream has flushed at least once
		if err := r.s.chunk(f); err != nil {
			t.Fatal(err)
		}
	}
	r.drain()
	const runs = 40
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	local, links := 0, 0
	for i := 0; i < runs; i++ {
		if err := r.s.chunk(f); err != nil {
			t.Fatal(err)
		}
		a, b := r.drain()
		local, links = local+a, links+b
	}
	runtime.ReadMemStats(&m1)
	if local == 0 || links == 0 {
		t.Fatalf("emitted %d local and %d link bytes, want both streams busy", local, links)
	}
	emitted := local + links
	beyond := (float64(m1.TotalAlloc-m0.TotalAlloc) - float64(emitted)) / float64(runs*entries)
	t.Logf("%.2f B allocated per entry beyond the %d B of chunks emitted over %d calls", beyond, emitted, runs)
	if beyond >= 4 {
		t.Errorf("routing a %d-entry chunk allocates %.2f B per entry beyond the chunks it emits, want under 4", entries, beyond)
	}
}

// TestSeedLinkMessagesAreEncodeFrameOp: a child's chunk is rendered into its
// link message, and every message a splitter forwards to a child — the
// FEData preamble, each re-packed chunk, the End — is byte for byte the one
// encodeFrameOp renders for the frame it parses to, child slot 0's first
// chunk exactly at the bound; each child's stream passes the SeqCheck the
// child runs, so a chunk's sum still covers its body alone.
func TestSeedLinkMessagesAreEncodeFrameOp(t *testing.T) {
	const hosts, perHost = 42, 64
	// The bound is the size of the first 100 entries of child slot 0's
	// stream: its first chunk holds exactly them, at the bound.
	var first proctab.Table
	for _, d := range rigTable(hosts, perHost) {
		if rk, _ := rigRankOf(d.Host); subtreeSlot(0, rigFanout, rigFanout, rk) == 0 && len(first) < 100 {
			first = append(first, d)
		}
	}
	bound := len(first.Encode())
	r := newSplitterRig(hosts, perHost, 4<<10, bound)
	fe := coll.Frame{H: coll.Header{Op: coll.OpSeed}, Body: []byte("fedata"), Sum: lmonp.Sum64([]byte("fedata"))}
	if err := r.s.chunk(fe); err != nil {
		t.Fatal(err)
	}
	for _, f := range r.frames {
		if err := r.s.chunk(f); err != nil {
			t.Fatal(err)
		}
	}
	end := coll.Frame{H: coll.Header{Op: coll.OpSeed, Index: uint32(len(r.frames) + 1)}, End: true, Total: hosts * perHost}
	if err := r.s.finish(end); err != nil {
		t.Fatal(err)
	}
	for slot, held := range r.f.held {
		var chk coll.SeqCheck
		n := 0
		for _, msg := range held {
			n++
			f, err := parseFrameOp(msg[4:], opSeedChunk, opSeedEnd)
			if err != nil {
				t.Fatalf("slot %d message %d: %v", slot, n, err)
			}
			if want := encodeFrameOp(opSeedChunk, opSeedEnd, f); !bytes.Equal(msg, want) {
				t.Fatalf("slot %d message %d (index %d, %d B) differs from encodeFrameOp's %d B", slot, n, f.H.Index, len(msg), len(want))
			}
			if !f.End {
				f.Sum = lmonp.Sum64(f.Body)
				if slot == 0 && f.H.Index == 1 && len(f.Body) != bound {
					t.Errorf("slot 0's first chunk is %d B, want %d: the bound", len(f.Body), bound)
				}
			}
			if err := chk.AdmitFrame(f); err != nil {
				t.Fatalf("slot %d message %d: %v", slot, n, err)
			}
		}
		if n < 3 {
			t.Errorf("slot %d carried %d messages, want FEData, chunks and End", slot, n)
		}
	}
}

// TestSeedLeafAllocatesOnlyItsScan is the allocation guard of a childless
// rank's share. A leaf keeps each chunk as it arrived, so a chunk of its own
// entries (launch_fat's: 256 tasks on its host), cut at the router's bound
// as its parent cuts them, handed on to a sink that
// assembles it, as a daemon's does, allocates the chunk's one scan — its
// pool and the pool's backing — and the assembler's list growing: no
// ChunkWriter, no rendered chunk, no second scan.
func TestSeedLeafAllocatesOnlyItsScan(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the test's behalf")
	}
	const rank, chunks, perChunk = 5, 64, 256 // rank 5 of 21 at fanout 4 is childless
	bodies := [][]byte{[]byte("fedata")}
	for k := 0; k < chunks; k++ {
		var tab proctab.Table
		for j := 0; j < perChunk; j++ {
			tab = append(tab, proctab.ProcDesc{Host: fmt.Sprintf("node%d", rank), Exe: "app", Pid: 100 + j, Rank: k*perChunk + j})
		}
		bodies = append(bodies, tab.Encode())
	}
	frames := seedFrames(bodies)
	frames[len(frames)-1].Total = chunks * perChunk

	cfg := Config{Rank: rank, Size: rigSize, Fanout: rigFanout}
	var asm proctab.Assembler
	var tabOut proctab.Table
	f := NewForming(nil, cfg, &SeedRouter{RankOf: rigRankOf, ChunkBytes: len(bodies[1])}, func(f coll.Frame, c proctab.Chunk) (err error) {
		switch {
		case f.End:
			tabOut, err = asm.FinishSlice(int(f.Total))
		case f.H.Index > 0:
			asm.AddScanned(c)
		}
		return err
	}, nil)
	f.admit(frames[0], nil)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, fr := range frames[1 : 1+chunks] {
		f.admit(fr, nil)
	}
	runtime.ReadMemStats(&m1)
	f.admit(frames[len(frames)-1], nil)
	if f.serr != nil || len(tabOut) != chunks*perChunk {
		t.Fatalf("the leaf kept %d entries (%v), want %d", len(tabOut), f.serr, chunks*perChunk)
	}
	objs := float64(m1.Mallocs-m0.Mallocs) / chunks
	bytesPer := float64(m1.TotalAlloc-m0.TotalAlloc) / chunks
	t.Logf("a %d B chunk of a leaf's share: %.2f objects, %.0f B", len(bodies[1]), objs, bytesPer)
	if objs > 2.25 || bytesPer > 256 {
		t.Errorf("a leaf's %d B chunk allocates %.2f objects and %.0f B, want its one scan: ≤ 2.25 objects and 256 B", len(bodies[1]), objs, bytesPer)
	}
}
