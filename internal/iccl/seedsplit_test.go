package iccl

import (
	"fmt"
	"runtime"
	"testing"

	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
	"launchmon/internal/proctab"
	"launchmon/internal/vtime"
)

// splitterRig is a seedSplitter on its own — rank 0 of a 21-rank tree of
// fanout 4, so four child streams and the local one — with a router that
// counts its lookups and re-packs into outBytes chunks, and the inBytes
// chunks of a table of perHost tasks on each of hosts nodes, each chunk as
// the seed frame the splitter is handed.
type splitterRig struct {
	s       *seedSplitter
	local   int // chunk bytes handed to the local consumer since the last drain
	outs    []*seedOutbox
	lookups int
	frames  []coll.Frame
}

func newSplitterRig(hosts, perHost, inBytes, outBytes int) *splitterRig {
	const size, fanout = 21, 4
	sim := vtime.New()
	r := &splitterRig{}
	for range Children(0, size, fanout) {
		r.outs = append(r.outs, vtime.NewChan[[]byte](sim))
	}
	var tab proctab.Table
	for i := 0; i < hosts*perHost; i++ {
		tab = append(tab, proctab.ProcDesc{Host: fmt.Sprintf("node%d", i/perHost), Exe: "app", Pid: 100 + i%perHost, Rank: i})
	}
	rt := &SeedRouter{ChunkBytes: outBytes, RankOf: func(host string) (int, bool) {
		r.lookups++
		var rk int
		_, err := fmt.Sscanf(host, "node%d", &rk)
		return rk % size, err == nil
	}}
	r.s = newSeedSplitter(rt, Config{Rank: 0, Size: size, Fanout: fanout}, func(f coll.Frame) error {
		r.local += len(f.Body)
		return nil
	}, r.outs)
	for i, body := range tab.EncodeChunks(inBytes) {
		r.frames = append(r.frames, coll.Frame{H: coll.Header{Op: coll.OpSeed, Index: uint32(i + 1)}, Body: body, Sum: lmonp.Sum64(body)})
	}
	return r
}

// drain empties the splitter's outboxes and returns the bytes of what it
// had emitted: chunk bodies on the local stream, link messages on the
// others.
func (r *splitterRig) drain() (local, links int) {
	local, r.local = r.local, 0
	for _, out := range r.outs {
		for {
			msg, ok := out.TryRecv()
			if !ok {
				break
			}
			links += len(msg)
		}
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
// routing a full chunk (4 000 entries on 16 hosts) allocates the chunks it
// emits — each rendered once, and once more as the link message it travels
// in — plus the scanned pool, and under 4 bytes per entry besides. (A
// materialized entry alone was 48, before any buffer it was appended to.)
func TestSeedSplitterAllocatesLittleBeyondItsChunks(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the test's behalf")
	}
	// The outgoing bound keeps a chunk and the link message around it in one
	// allocator size class (56 KiB), so rounding does not pass for allocation.
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
	emitted := local + 2*links
	beyond := (float64(m1.TotalAlloc-m0.TotalAlloc) - float64(emitted)) / float64(runs*entries)
	t.Logf("%.2f B allocated per entry beyond the %d B of chunks emitted over %d calls", beyond, emitted, runs)
	if beyond >= 4 {
		t.Errorf("routing a %d-entry chunk allocates %.2f B per entry beyond the chunks it emits, want under 4", entries, beyond)
	}
}
