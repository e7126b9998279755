package coll

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"launchmon/internal/lmonp"
	"launchmon/internal/proctab"
)

// FuzzCollChunkDecode hardens the collective chunk decoders against
// corrupt or hostile frames: header + entry-list + end-marker parsing and
// the reassembly validators must reject garbage without panicking, and
// anything that decodes must re-encode to an equivalent wire form. Its
// corpus holds the front-end hop's layouts, a stream's last chunk carrying
// its end marker (Frame.Last) among them, whole and cut short; the tree
// hop's are iccl's FuzzTreeChunkDecode.
func FuzzCollChunkDecode(f *testing.F) {
	f.Add([]byte{}, []byte{}, false)
	chunk := Frame{H: Header{Op: OpGather, Tag: 3, Index: 1, Lo: 4, Hi: 9}, Body: []byte("body")}
	p, u := chunk.EncodeMsg()
	f.Add(p, u, false)
	end := Frame{H: Header{Op: OpReduce, Tag: 7, Index: 2, Filter: "topk:4"}, End: true, Total: 99}
	p, u = end.EncodeMsg()
	f.Add(p, u, true)
	retired := Frame{H: Header{Op: opRetired, Tag: 1}, Body: []byte("x")} // a bad header
	p, u = retired.EncodeMsg()
	f.Add(p, u, false)
	f.Add(AppendEntries(nil, []Entry{{Rank: 1, Blob: []byte("x")}}), []byte{0, 0, 0, 1}, false)
	// The v2 plane's frames: flow-control credits (count rides Index), a
	// retired barrier's body-less end marker (a bad header), and the
	// all-variants whose down-phase reuses the entry/raw stream layouts.
	cr := CreditFrame(MinUserTag+2, 5)
	p, u = cr.EncodeMsg()
	f.Add(p, u, false)
	bar := Frame{H: Header{Op: opRetiredBarrier, Tag: MaxUserTag + 1}, End: true, Total: 0, Sum: lmonp.SumInit}
	p, u = bar.EncodeMsg()
	f.Add(p, u, true)
	ag := EntryFrames(OpAllGather, MinUserTag, []Entry{{Rank: 0, Blob: []byte("a")}, {Rank: 2, Blob: []byte("bb")}}, 64)
	p, u = ag[0].EncodeMsg()
	f.Add(p, u, false)
	ar := RawFrames(OpAllReduce, 9, "sum", []byte{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	p, u = ar[0].EncodeMsg()
	f.Add(p, u, false)
	p, u = ar[len(ar)-1].EncodeMsg()
	f.Add(p, u, true)
	// Last chunks: a gather's one chunk, a reduce's with its filter, an
	// empty payload's; each also with its end marker's digest cut short.
	// The reduce's and the empty payload's are a Tail, as is the chunk
	// before the reduce's last.
	tail := Merged(RawFrames(OpAllReduce, 9, "sum", []byte{1, 2, 3, 4, 5, 6, 7, 8}, 4), 2)
	p, u = tail[0].EncodeMsg()
	f.Add(p, u, false)
	for _, last := range [][]Frame{Merged(ag, 0), tail, Merged(RawFrames(OpBroadcast, 1, "", nil, 0), DefaultWindow)} {
		p, u = last[len(last)-1].EncodeMsg()
		f.Add(p, u, true)
		f.Add(p[:len(p)-3], u, true)
	}

	f.Fuzz(func(t *testing.T, payload, usr []byte, isEnd bool) {
		fr, err := DecodeMsg(isEnd, payload, usr)
		if err == nil {
			// Round trip: re-encoding a decoded frame reproduces the header
			// section and preserves the body.
			p2, u2 := fr.EncodeMsg()
			fr2, err := DecodeMsg(fr.End || fr.Last, p2, u2)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if fr2.H != fr.H || fr2.End != fr.End || fr2.Last != fr.Last || fr2.Total != fr.Total ||
				fr2.Digest != fr.Digest || !bytes.Equal(fr2.Body, fr.Body) {
				t.Fatalf("round trip diverged: %+v vs %+v", fr, fr2)
			}
			if fr.Last && !isEnd {
				t.Fatal("a chunk message decoded as a Last chunk")
			}
			// Feeding the frame to the assemblers — a Last chunk, then the
			// end marker it carries — must never panic.
			var raw RawAssembler
			var rank RankAssembler
			if fr.End {
				raw.Finish(fr.H, fr.Total)
			} else {
				raw.Add(fr.H, fr.Body)
				rank.Add(fr.H, fr.Body)
			}
			if end := fr.EndMarker(); fr.Last {
				raw.Finish(end.H, end.Total)
				rank.Finish(end.H, end.Total, 1)
			}
		}
		// Entry decoding on arbitrary bytes must not panic; whatever
		// decodes must re-encode losslessly.
		if entries, err := DecodeEntries(usr); err == nil {
			re, err := DecodeEntries(AppendEntries(nil, entries))
			if err != nil || len(re) != len(entries) {
				t.Fatalf("entries re-decode: %v (%d vs %d)", err, len(re), len(entries))
			}
		}
		// Header decode directly over the raw payload.
		DecodeHeader(lmonp.NewReader(payload))
	})
}

// FuzzSeedStreamValidate exercises the streaming seed-validation path
// (SeqCheck.AdmitFrame over the rolling-checksum contract): a pristine
// seed stream — FEData frame 0, RPDTAB chunks from 1, digest-bearing end
// marker — must always validate, and flipping any single byte of an RPDTAB
// chunk must fail the stream at its end marker: no link carries a chunk's
// sum, so the receiver sums what arrived, as a tree link does, and the
// rolled digest no longer matches the writer's. (FEData is outside the
// digest.)
func FuzzSeedStreamValidate(f *testing.F) {
	f.Add(0, 64, uint16(0), byte(0))
	f.Add(3, 64, uint16(2), byte(1))
	f.Add(100, 128, uint16(500), byte(0xff))
	f.Add(512, 32, uint16(9999), byte(7))

	f.Fuzz(func(t *testing.T, entries, chunkBytes int, corruptAt uint16, xor byte) {
		if entries < 0 {
			entries = -entries
		}
		entries %= 513
		if chunkBytes < 0 {
			chunkBytes = -chunkBytes
		}
		chunkBytes = 32 + chunkBytes%4096
		tab := make(proctab.Table, 0, entries)
		for i := 0; i < entries; i++ {
			tab = append(tab, proctab.ProcDesc{
				Host: fmt.Sprintf("node%d", i/4), Exe: "app", Pid: 100 + i, Rank: i,
			})
		}

		feData := []byte("fe-bootstrap-data")
		frames := []Frame{{
			H: Header{Op: OpSeed, Index: 0}, Body: feData, Sum: lmonp.Sum64(feData),
		}}
		w := proctab.NewChunkWriter(chunkBytes, func(chunk []byte, sum uint64) error {
			frames = append(frames, Frame{
				H: Header{Op: OpSeed, Index: uint32(len(frames))}, Body: chunk, Sum: sum,
			})
			return nil
		})
		if err := w.AddTable(tab); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, Frame{
			H: Header{Op: OpSeed, Index: uint32(len(frames))}, End: true,
			Total: uint64(entries), Sum: w.Digest(),
		})

		// The pristine stream must validate end to end, its end marker's
		// writer digest matching the one the link rolled.
		var chk SeqCheck
		for _, fr := range frames {
			if err := chk.AdmitFrame(fr); err != nil {
				t.Fatalf("pristine seed stream rejected: %v", err)
			}
		}

		if xor == 0 {
			return
		}
		// Flip one RPDTAB body byte somewhere in the stream: the end marker
		// must fail the stream, and nothing before it.
		chunks := frames[1 : len(frames)-1]
		bodyBytes := 0
		for _, fr := range chunks {
			bodyBytes += len(fr.Body)
		}
		if bodyBytes == 0 {
			return
		}
		target := int(corruptAt) % bodyBytes
		var bad SeqCheck
		for i, fr := range frames {
			if i > 0 && !fr.End && target >= 0 && target < len(fr.Body) {
				mut := append([]byte(nil), fr.Body...)
				mut[target] ^= xor
				fr.Body = mut
			}
			if i > 0 && !fr.End {
				target -= len(fr.Body)
				fr.Sum = lmonp.Sum64(fr.Body) // the receiver's
			}
			err := bad.AdmitFrame(fr)
			switch {
			case !fr.End && err != nil:
				t.Fatalf("corrupted seed stream failed at frame %d, before its end: %v", i, err)
			case fr.End && (err == nil || !strings.Contains(err.Error(), "digest mismatch")):
				t.Fatalf("corrupted seed stream ended with %v, want a digest mismatch", err)
			}
		}
	})
}

// FuzzMultiTagSeqCheck exercises the per-tag stream discipline that the
// concurrent tagged collectives rely on: frames of several tagged streams
// interleaved arbitrarily on one link must validate when demultiplexed
// into per-tag SeqChecks, and a duplicated delivery, a dropped chunk, or
// a frame misrouted into another tag's checker must each be rejected by
// exactly the tag it corrupts — never by an unrelated one.
func FuzzMultiTagSeqCheck(f *testing.F) {
	f.Add(2, 300, 64, byte(0), uint16(0))
	f.Add(3, 1000, 48, byte(1), uint16(5))
	f.Add(4, 256, 32, byte(2), uint16(2))
	f.Add(4, 2048, 96, byte(3), uint16(11))
	f.Add(1, 0, 64, byte(1), uint16(0))

	f.Fuzz(func(t *testing.T, tags, payloadLen, chunkBytes int, mutate byte, at uint16) {
		if tags < 0 {
			tags = -tags
		}
		tags = 1 + tags%4
		if payloadLen < 0 {
			payloadLen = -payloadLen
		}
		payloadLen %= 4096
		if chunkBytes < 0 {
			chunkBytes = -chunkBytes
		}
		chunkBytes = 16 + chunkBytes%512

		// One chunked stream per tag, cycling through the raw-stream ops
		// (reduce carries a filter, which SeqCheck pins per stream).
		ops := []Op{OpReduce, OpAllReduce, OpBroadcast, OpGather}
		streams := make([][]Frame, tags)
		for i := range streams {
			op := ops[i%len(ops)]
			var filter string
			if op == OpReduce || op == OpAllReduce {
				filter = "concat"
			}
			body := bytes.Repeat([]byte{byte(0x30 + i)}, payloadLen)
			streams[i] = RawFrames(op, MinUserTag+uint32(i), filter, body, chunkBytes)
		}
		// Round-robin the streams into one link delivery order.
		var link []Frame
		cursor := make([]int, tags)
		for {
			advanced := false
			for i := range streams {
				if cursor[i] < len(streams[i]) {
					link = append(link, streams[i][cursor[i]])
					cursor[i]++
					advanced = true
				}
			}
			if !advanced {
				break
			}
		}

		admit := func(chk map[uint32]*SeqCheck, fr Frame) error {
			c := chk[fr.H.Tag]
			if c == nil {
				c = new(SeqCheck)
				chk[fr.H.Tag] = c
			}
			return c.AdmitFrame(fr)
		}

		// The pristine interleaving must validate on every tag.
		pristine := make(map[uint32]*SeqCheck, tags)
		for _, fr := range link {
			if err := admit(pristine, fr); err != nil {
				t.Fatalf("pristine interleaved stream rejected (tag %d): %v", fr.H.Tag, err)
			}
		}

		target := int(at) % len(link)
		victim := link[target]
		switch mutate % 4 {
		case 0:
			// No corruption round for this input.
		case 1:
			// Duplicate delivery of one frame: the victim tag must reject
			// the replay as a duplicate; other tags stay clean.
			bad := make(map[uint32]*SeqCheck, tags)
			for i, fr := range link {
				if err := admit(bad, fr); err != nil {
					t.Fatalf("clean frame rejected before replay (tag %d): %v", fr.H.Tag, err)
				}
				if i == target {
					err := admit(bad, fr)
					if !errors.Is(err, errChunkDup) {
						t.Fatalf("replayed frame (tag %d index %d): got %v, want ErrChunkDup", fr.H.Tag, fr.H.Index, err)
					}
					return
				}
			}
		case 2:
			// Drop one chunk: the victim tag's next frame must report a
			// gap. Dropping the end marker is undetectable by sequencing
			// alone (the stream simply never completes), so skip that case.
			if victim.End {
				return
			}
			bad := make(map[uint32]*SeqCheck, tags)
			for i, fr := range link {
				if i == target {
					continue
				}
				err := admit(bad, fr)
				if fr.H.Tag == victim.H.Tag && fr.H.Index > victim.H.Index {
					if !errors.Is(err, errChunkGap) {
						t.Fatalf("frame after dropped chunk (tag %d): got %v, want ErrChunkGap", fr.H.Tag, err)
					}
					return
				}
				if err != nil {
					t.Fatalf("unrelated tag %d rejected after drop on tag %d: %v", fr.H.Tag, victim.H.Tag, err)
				}
			}
			t.Fatalf("dropped chunk (tag %d index %d) never detected", victim.H.Tag, victim.H.Index)
		case 3:
			// Misroute one frame into another tag's checker: the tag pin
			// must reject the foreign frame as a mixed stream. The target
			// must land after the first round-robin cycle so every tag's
			// checker has started (an unstarted checker pins whatever tag
			// it sees first — that is the demultiplexer's job to prevent,
			// not SeqCheck's).
			if tags < 2 {
				return
			}
			if target < tags {
				target += tags
				victim = link[target]
			}
			other := (victim.H.Tag-MinUserTag+1)%uint32(tags) + MinUserTag
			bad := make(map[uint32]*SeqCheck, tags)
			for i, fr := range link {
				if err := admit(bad, fr); err != nil {
					t.Fatalf("clean frame rejected before misroute (tag %d): %v", fr.H.Tag, err)
				}
				if i == target {
					err := bad[other].AdmitFrame(victim)
					if !errors.Is(err, errStreamMix) {
						t.Fatalf("misrouted frame (tag %d into %d): got %v, want ErrStreamMix", victim.H.Tag, other, err)
					}
					return
				}
			}
		}
	})
}
