package coll

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"launchmon/internal/lmonp"
)

func TestHeaderRoundTrip(t *testing.T) {
	for _, h := range []Header{
		{Op: OpBroadcast, Tag: 1},
		{Op: OpAllGather, Tag: 7, Index: 3, Lo: 10, Hi: 20},
		{Op: OpGather, Tag: 1 << 30, Index: 0xffffffff, Lo: 0, Hi: 1},
		{Op: OpReduce, Tag: 2, Filter: "topk:8"},
		{Op: OpSeed, Index: 5},
	} {
		got, err := DecodeHeader(lmonp.NewReader(h.AppendTo(nil)))
		if err != nil {
			t.Fatalf("%+v: %v", h, err)
		}
		if got != h {
			t.Fatalf("round trip %+v -> %+v", h, got)
		}
	}
}

// TestDecodeHeaderRejectsBadOp: an op outside the live ones is a bad
// header where it is decoded, ops 2 and 6 (the retired scatter and barrier)
// too, though they lie inside their range: it must not get as far as a
// stream, to fail there as a diverged collective.
//
// The Tail bit does not make a bad op good: ops 0, 2 and 6 with it are bad,
// and so is a credit, which is never a Tail.
func TestDecodeHeaderRejectsBadOp(t *testing.T) {
	for _, op := range []byte{0, 2, 6, byte(OpCredit) + 1, 99, tailBit | 0, tailBit | 2, tailBit | 6, tailBit | byte(OpCredit), 0xff} {
		want := fmt.Sprintf("op %d", op)
		enc := Header{Op: OpBroadcast, Tag: 1}.AppendTo(nil)
		enc[0] = op
		if _, err := DecodeHeader(lmonp.NewReader(enc)); !errors.Is(err, errBadHeader) || !strings.Contains(err.Error(), want) {
			t.Fatalf("DecodeHeader: %v, want a bad header naming %s", err, want)
		}
		for _, f := range []Frame{
			{H: Header{Op: OpBroadcast, Tag: 1}, Body: []byte("body")},
			{H: Header{Op: OpBroadcast, Tag: 1}, End: true, Total: 4},
		} {
			payload, usr := f.EncodeMsg()
			payload[0] = op
			if _, err := DecodeMsg(f.End, payload, usr); !errors.Is(err, errBadHeader) || !strings.Contains(err.Error(), want) {
				t.Fatalf("DecodeMsg(end=%v): %v, want a bad header naming %s", f.End, err, want)
			}
		}
	}
	if _, err := DecodeHeader(lmonp.NewReader(nil)); err == nil {
		t.Fatal("empty header accepted")
	}
}

// TestTailRoundTrips: Header.Tail rides the op byte on the front-end hop —
// a chunk, a Last chunk and a bare End keep it through EncodeMsg and
// DecodeMsg, in as many bytes as without it.
func TestTailRoundTrips(t *testing.T) {
	raw := RawFrames(OpBroadcast, MinUserTag, "", []byte("twelve bytes"), 8)
	for _, f := range []Frame{
		raw[0],
		Merged(raw, 2)[1],
		{H: Header{Op: OpReduce, Tag: 3, Index: 1, Filter: "sum"}, End: true, Total: 8},
	} {
		f.H.Tail = false
		plain, _ := f.EncodeMsg()
		f.H.Tail = true
		payload, usr := f.EncodeMsg()
		got, err := DecodeMsg(f.End || f.Last, payload, usr)
		if err != nil || got.H != f.H || got.End != f.End || got.Last != f.Last || !bytes.Equal(got.Body, f.Body) {
			t.Fatalf("%+v: decoded %+v, %v", f, got, err)
		}
		if len(payload) != len(plain) {
			t.Errorf("%+v: %d bytes with the Tail bit, %d without", f.H, len(payload), len(plain))
		}
	}
}

func TestMsgRoundTrip(t *testing.T) {
	chunk := Frame{H: Header{Op: OpGather, Tag: 3, Index: 1, Lo: 4, Hi: 9}, Body: []byte("body")}
	payload, usr := chunk.EncodeMsg()
	got, err := DecodeMsg(false, payload, usr)
	if err != nil {
		t.Fatal(err)
	}
	if got.H != chunk.H || !bytes.Equal(got.Body, chunk.Body) || got.End {
		t.Fatalf("chunk round trip: %+v", got)
	}

	end := Frame{H: Header{Op: OpGather, Tag: 3, Index: 2}, End: true, Total: 42}
	payload, usr = end.EncodeMsg()
	got, err = DecodeMsg(true, payload, usr)
	if err != nil {
		t.Fatal(err)
	}
	if !got.End || got.Total != 42 || got.H != end.H {
		t.Fatalf("end round trip: %+v", got)
	}
}

func TestEntriesRoundTrip(t *testing.T) {
	in := []Entry{{Rank: 0, Blob: []byte("a")}, {Rank: 17, Blob: nil}, {Rank: 3, Blob: bytes.Repeat([]byte{7}, 100)}}
	out, err := DecodeEntries(AppendEntries(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("%d entries", len(out))
	}
	for i := range in {
		if out[i].Rank != in[i].Rank || !bytes.Equal(out[i].Blob, in[i].Blob) {
			t.Fatalf("entry %d: %+v", i, out[i])
		}
	}
}

func TestSplitRawBounds(t *testing.T) {
	data := bytes.Repeat([]byte{1}, 1000)
	chunks := splitRaw(data, 256)
	if len(chunks) != 4 {
		t.Fatalf("%d chunks", len(chunks))
	}
	var joined []byte
	for _, ch := range chunks {
		if len(ch) > 256 {
			t.Fatalf("chunk of %d bytes", len(ch))
		}
		joined = append(joined, ch...)
	}
	if !bytes.Equal(joined, data) {
		t.Fatal("chunks do not rejoin")
	}
	if got := splitRaw(nil, 256); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("empty data: %v", got)
	}
}

// Reassembly validation, mirroring the proctab Assembler tests: FIFO
// links mean a duplicate or out-of-order chunk is a corrupted peer and
// must be rejected, not silently misassembled.

func TestRawAssemblerInOrder(t *testing.T) {
	frames := RawFrames(OpBroadcast, 5, "", bytes.Repeat([]byte{9}, 700), 256)
	var asm RawAssembler
	for _, f := range frames[:len(frames)-1] {
		if err := asm.Add(f.H, f.Body); err != nil {
			t.Fatal(err)
		}
	}
	end := frames[len(frames)-1]
	data, err := asm.Finish(end.H, end.Total)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 700 {
		t.Fatalf("%d bytes", len(data))
	}
}

func TestRawAssemblerRejectsDuplicateChunk(t *testing.T) {
	frames := RawFrames(OpBroadcast, 5, "", bytes.Repeat([]byte{9}, 700), 256)
	var asm RawAssembler
	if err := asm.Add(frames[0].H, frames[0].Body); err != nil {
		t.Fatal(err)
	}
	if err := asm.Add(frames[0].H, frames[0].Body); !errors.Is(err, errChunkDup) {
		t.Fatalf("duplicate chunk: %v", err)
	}
}

func TestRawAssemblerRejectsOutOfOrderChunk(t *testing.T) {
	frames := RawFrames(OpBroadcast, 5, "", bytes.Repeat([]byte{9}, 700), 256)
	var asm RawAssembler
	if err := asm.Add(frames[1].H, frames[1].Body); !errors.Is(err, errChunkGap) {
		t.Fatalf("chunk 1 first: %v", err)
	}
}

func TestRawAssemblerRejectsMixedStreams(t *testing.T) {
	var asm RawAssembler
	if err := asm.Add(Header{Op: OpBroadcast, Tag: 1}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := asm.Add(Header{Op: OpBroadcast, Tag: 2, Index: 1}, []byte("y")); !errors.Is(err, errStreamMix) {
		t.Fatalf("tag switch: %v", err)
	}
}

func TestRawAssemblerRejectsShortTotal(t *testing.T) {
	var asm RawAssembler
	if err := asm.Add(Header{Op: OpBroadcast, Tag: 1}, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	if _, err := asm.Finish(Header{Op: OpBroadcast, Tag: 1, Index: 1}, 99); !errors.Is(err, errShortTotal) {
		t.Fatalf("bad total: %v", err)
	}
}

// TestRawAssemblerAllocatesResultOnce is the allocation guard of the
// one-copy reassembly: Add keeps the chunk bodies it is handed, Finish
// allocates the payload exactly once — at its final size, checked against
// the end marker before it is trusted — and what it returns is the
// caller's own, sharing no byte with the chunks.
func TestRawAssemblerAllocatesResultOnce(t *testing.T) {
	const payload, chunk = 32 << 10, 4 << 10
	data := bytes.Repeat([]byte{7}, payload)
	frames := RawFrames(OpBroadcast, 5, "", data, chunk)
	end := frames[len(frames)-1]
	fill := func(asm *RawAssembler) {
		for _, f := range frames[:len(frames)-1] {
			if err := asm.Add(f.H, f.Body); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Finish alone, on assemblers filled beforehand: one object, the result.
	const runs = 50
	asms := make([]RawAssembler, runs+1) // AllocsPerRun warms up with one extra call
	for i := range asms {
		fill(&asms[i])
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		if _, err := asms[next].Finish(end.H, end.Total); err != nil {
			t.Fatal(err)
		}
		next++
	}); n != 1 {
		t.Errorf("Finish allocates %v objects, want 1 (the result)", n)
	}

	// Add + Finish together allocate the payload once over, plus the list
	// of kept chunks — not the payload several times over, as growing it
	// chunk by chunk did.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		var asm RawAssembler
		fill(&asm)
		if _, err := asm.Finish(end.H, end.Total); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / runs; per > payload+1024 {
		t.Errorf("reassembling %d bytes allocates %d, want the payload plus at most 1 KiB", payload, per)
	}

	var asm RawAssembler
	fill(&asm)
	got, err := asm.Finish(end.H, end.Total)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		got[i] = 0xff
	}
	if !bytes.Equal(data, bytes.Repeat([]byte{7}, payload)) {
		t.Error("a write to the result reached the chunks it was assembled from")
	}
}

func TestRankAssemblerRejectsDuplicateRank(t *testing.T) {
	var asm RankAssembler
	body := AppendEntries(nil, []Entry{{Rank: 2, Blob: []byte("a")}})
	if err := asm.Add(Header{Op: OpGather, Tag: 1}, body); err != nil {
		t.Fatal(err)
	}
	body = AppendEntries(nil, []Entry{{Rank: 2, Blob: []byte("b")}})
	if err := asm.Add(Header{Op: OpGather, Tag: 1, Index: 1}, body); err == nil {
		t.Fatal("duplicate rank accepted")
	}
}

func TestRankAssemblerFinishValidatesCoverage(t *testing.T) {
	build := func(ranks ...int) *RankAssembler {
		var asm RankAssembler
		for i, rk := range ranks {
			body := AppendEntries(nil, []Entry{{Rank: rk, Blob: []byte{byte(rk)}}})
			if err := asm.Add(Header{Op: OpGather, Tag: 1, Index: uint32(i)}, body); err != nil {
				t.Fatal(err)
			}
		}
		return &asm
	}
	asm := build(0, 1, 2)
	out, err := asm.Finish(Header{Op: OpGather, Tag: 1, Index: 3}, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for rk, blob := range out {
		if len(blob) != 1 || blob[0] != byte(rk) {
			t.Fatalf("rank %d slot: %v", rk, blob)
		}
	}
	// Missing rank.
	asm = build(0, 2)
	if _, err := asm.Finish(Header{Op: OpGather, Tag: 1, Index: 2}, 2, 3); err == nil {
		t.Fatal("missing rank accepted")
	}
	// Out-of-range rank.
	asm = build(0, 1, 5)
	if _, err := asm.Finish(Header{Op: OpGather, Tag: 1, Index: 3}, 3, 3); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

func TestEntryFramesPackAndRejoin(t *testing.T) {
	var entries []Entry
	for rk := 0; rk < 40; rk++ {
		entries = append(entries, Entry{Rank: rk, Blob: bytes.Repeat([]byte{byte(rk)}, 50)})
	}
	frames := EntryFrames(OpGather, 9, entries, 256)
	if len(frames) < 5 {
		t.Fatalf("only %d frames for 2000 bytes at 256/chunk", len(frames))
	}
	var asm RankAssembler
	for _, f := range frames {
		if f.End {
			out, err := asm.Finish(f.H, f.Total, 40)
			if err != nil {
				t.Fatal(err)
			}
			for rk, blob := range out {
				if !bytes.Equal(blob, entries[rk].Blob) {
					t.Fatalf("rank %d mismatch", rk)
				}
			}
			return
		}
		if len(f.Body) > 256+64 {
			t.Fatalf("frame body %d bytes", len(f.Body))
		}
		if err := asm.Add(f.H, f.Body); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("no end frame")
}

func TestFilterConcat(t *testing.T) {
	fn, err := LookupFilter("concat")
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := fn(nil, []byte("ab"))
	acc, _ = fn(acc, []byte("cd"))
	if string(acc) != "abcd" {
		t.Fatalf("%q", acc)
	}
}

func TestFilterSum(t *testing.T) {
	fn, err := LookupFilter("sum")
	if err != nil {
		t.Fatal(err)
	}
	v := func(xs ...uint64) []byte {
		var b []byte
		for _, x := range xs {
			b = lmonp.AppendUint64(b, x)
		}
		return b
	}
	acc, err := fn(nil, v(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	acc, err = fn(acc, v(2, 20))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(acc, v(3, 30)) {
		t.Fatalf("%x", acc)
	}
	if _, err := fn(acc, v(1)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := fn(nil, []byte{1, 2, 3}); err == nil {
		t.Fatal("non-vector accepted")
	}
}

func TestLookupUnknownFilter(t *testing.T) {
	// Only "sum" and "concat" resolve: a name with an argument, any other
	// name and the empty name are unknown.
	for _, name := range []string{"no-such-filter", "topk:4", "sum:1", "obs/merge", ""} {
		_, err := LookupFilter(name)
		if err == nil {
			t.Fatalf("filter %q accepted", name)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
			t.Fatalf("filter %q: error %q does not name it", name, err)
		}
	}
}
