package iccl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
)

// linkCount is what one end of a tree link was handed of the test's stream.
type linkCount struct{ chunks, lasts, ends, credits int }

// TestLinkMessagesPerStream counts, link by link on the 13-rank wire tree,
// what one stream puts on it: n messages, the last a chunk carrying
// the end marker (coll.Frame.Last), and n−1 credits back; no end marker of
// its own, and no credit for the last chunk. Every operation that streams
// data is run with one-chunk and with n-chunk streams. A barrier's streams
// have no chunk, so each of its two waves is one bare End a link and no
// credit.
func TestLinkMessagesPerStream(t *testing.T) {
	one := func(int) int { return 1 }
	subtree := func(child int) int { return len(SubtreeRanks(child, wireN, wireFanout)) }
	raw := func(data []byte) []coll.Frame {
		return coll.RawFrames(coll.OpBroadcast, relayTag, "", data, opChunk)
	}
	for _, tc := range []struct {
		name  string
		chunk int
		fe    []coll.Frame
		down  bool          // the stream flows parent → child
		n     func(int) int // the stream's messages on a child's link
		call  func(pl *Plane, rank int) error
	}{
		{"broadcast/1", opChunk, raw(opPart(0)), true, one, func(pl *Plane, _ int) error {
			_, err := pl.BroadcastTag(relayTag)
			return err
		}},
		{"broadcast/8", opChunk, raw(opPayload), true, func(int) int { return 8 }, func(pl *Plane, _ int) error {
			_, err := pl.BroadcastTag(relayTag)
			return err
		}},
		{"gather/1", 4096, nil, false, one, func(pl *Plane, rank int) error {
			return pl.GatherTag(relayTag, opPart(rank))
		}},
		{"gather/subtree", opChunk, nil, false, subtree, func(pl *Plane, rank int) error {
			return pl.GatherTag(relayTag, opPart(rank)) // an entry a chunk
		}},
		{"reduce/1", opChunk, nil, false, one, func(pl *Plane, _ int) error {
			return pl.ReduceTag(relayTag, u64(1), "sum")
		}},
		{"reduce/8", opChunk, nil, false, func(int) int { return 8 }, func(pl *Plane, _ int) error {
			return pl.ReduceTag(relayTag, opPayload, "sum")
		}},
		{"barrier", opChunk, nil, false, func(int) int { return 0 }, func(pl *Plane, _ int) error {
			return pl.Barrier()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tag := relayTag
			if tc.name == "barrier" {
				tag = coll.MaxUserTag + 2 // the tree sequence's, behind the warm-up barrier
			}
			got := countLinkMessages(t, tc.chunk, tc.fe, tag, tc.call)
			for child := 1; child < wireN; child++ {
				parent := Parent(child, wireFanout)
				rx, tx := [2]int{parent, child}, [2]int{child, parent} // [receiver, sender]
				if tc.down {
					rx, tx = tx, rx
				}
				n := tc.n(child)
				want, back := linkCount{chunks: n - 1, lasts: 1}, linkCount{credits: n - 1}
				if n == 0 { // one bare End each way
					want, back = linkCount{ends: 1}, linkCount{ends: 1}
				}
				if got[rx] != want || got[tx] != back {
					t.Errorf("link %d–%d: data side %+v, want %+v; credit side %+v, want %+v",
						parent, child, got[rx], want, got[tx], back)
				}
			}
		})
	}
}

// countLinkMessages runs call on every rank of the wire tree, the root's
// front end sending fe, and counts what each link end is handed of the
// stream of tag, keyed [receiving rank, sending rank].
func countLinkMessages(t *testing.T, chunk int, fe []coll.Frame, tag uint32, call func(pl *Plane, rank int) error) map[[2]int]linkCount {
	t.Helper()
	got := map[[2]int]linkCount{}
	sortHook = func(d *linkDemux, msg []byte) {
		raw := msg[4:]
		key := [2]int{d.c.rank, d.peer()}
		c := got[key]
		switch binary.BigEndian.Uint32(raw) {
		case opCollChunk, opCollEnd:
			f, err := parseFrameOp(raw, opCollChunk, opCollEnd)
			if err != nil || f.H.Tag != tag {
				return
			}
			switch {
			case f.Last:
				c.lasts++
			case f.End:
				c.ends++
			default:
				c.chunks++
			}
		case opCredit:
			f, err := parseCredit(raw)
			if err != nil || f.H.Tag != tag {
				return
			}
			c.credits += int(f.Credits())
		default:
			return
		}
		got[key] = c
	}
	defer func() { sortHook = nil }()
	r := newRelayRig(t, wireN)
	d := &feDriver{send: fe}
	r.run(t, wireFanout, func(c *Comm, p *cluster.Proc) error {
		pl := d.plane(c, chunk, 64)
		if err := pl.Barrier(); err != nil {
			return err
		}
		p.Sim().Sleep(relayAt - p.Sim().Now())
		if err := call(pl, c.Rank()); err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		p.Sim().Sleep(time.Second) // for the credits still in flight
		return nil
	})
	for i, err := range r.errs {
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
	}
	return got
}

// TestMalformedLastChunkFailsTheLink sends rank 0 a gather's last chunk,
// carrying its end marker, cut short at every byte, with its body length
// lying by one either way, and with its header naming op 2, the retired
// scatter. Each must fail the link with a protocol error naming rank 1, and
// end the gather draining it with ErrSevered rather than leave it waiting
// for an end marker; op 2 fails there as a bad header. The one cut that
// leaves a bare End's 16 bytes after the header is a well-formed End, and
// is not sent.
func TestMalformedLastChunkFailsTheLink(t *testing.T) {
	stream := coll.EntryFrames(coll.OpGather, relayTag, []coll.Entry{{Rank: 1, Blob: []byte("mine")}}, 0)
	good := encodeFrameOp(opCollChunk, opCollEnd, coll.Merged(stream)[0])[4:]
	hn := int(binary.BigEndian.Uint32(good[4:]))
	var bad [][]byte
	for n := 0; n < len(good); n++ {
		if n != 8+hn+16 { // opcode, header length, header, a bare End's 16 bytes
			bad = append(bad, good[:n])
		}
	}
	for _, by := range []int{-1, 1} {
		b := bytes.Clone(good)
		at := b[8+hn:] // the body's length prefix
		binary.BigEndian.PutUint32(at, uint32(int(binary.BigEndian.Uint32(at))+by))
		bad = append(bad, b)
	}
	retired := bytes.Clone(good)
	retired[8] = 2 // the header's op byte, behind the opcode and the header length
	bad = append(bad, retired)
	for i, msg := range bad {
		var opErr error
		rig(t, 2, 2, func(c *Comm, p *cluster.Proc) error {
			pl := c.NewPlane(0, 0, func(coll.Frame) error { return nil }, nil)
			if err := pl.Barrier(); err != nil { // installs the demux
				return err
			}
			if c.Rank() == 1 {
				if err := lmonp.WriteFrame(c.parent, msg); err != nil {
					return err
				}
				p.Sim().Sleep(time.Second) // the link stays up
				return nil
			}
			opErr = pl.GatherTag(relayTag, []byte("root"))
			return nil
		})
		if !errors.Is(opErr, ErrSevered) || !errors.Is(opErr, errProtocol) || !strings.Contains(opErr.Error(), "from rank 1") {
			t.Errorf("message %d (%d of %d bytes): gather ended with %v, want ErrSevered wrapping a protocol error naming rank 1",
				i, len(msg), len(good), opErr)
		}
		if i == len(bad)-1 && (opErr == nil || !strings.Contains(opErr.Error(), "bad header: op 2")) {
			t.Errorf("op 2: gather ended with %v, want a bad header naming op 2", opErr)
		}
	}
}

// FuzzTreeChunkDecode is FuzzCollChunkDecode's tree-hop half: the tree-link
// codec (encodeFrameOp, parseFrameOp) over arbitrary messages, its corpus
// the plane's chunks, end markers and last chunks carrying their end marker,
// and the seed stream's frames. Nothing may panic, whatever parses must
// re-encode to a message that parses to the same frame, and the seed
// stream's opcodes never parse to a Last chunk.
func FuzzTreeChunkDecode(f *testing.F) {
	reduce := coll.RawFrames(coll.OpReduce, 9, "sum", make([]byte, 24), 8)
	frames := append([]coll.Frame{}, reduce...) // chunks and a bare End
	frames = append(frames, coll.Merged(reduce)...)
	frames = append(frames, coll.Merged(coll.EntryFrames(coll.OpGather, relayTag, []coll.Entry{{Rank: 1, Blob: []byte("mine")}}, 0))...)
	frames = append(frames, coll.Merged(coll.RawFrames(coll.OpBroadcast, 1, "", nil, 0))...) // an empty payload
	for _, fr := range frames {
		msg := encodeFrameOp(opCollChunk, opCollEnd, fr)[4:]
		f.Add(msg, false)
		f.Add(msg[:len(msg)-1], false)
	}
	f.Add(encodeFrameOp(opSeedChunk, opSeedEnd, coll.Frame{Body: []byte("fedata")})[4:], true)
	status := lmonp.AppendUint32(lmonp.AppendUint32(nil, opStatus), 3)
	f.Add(lmonp.AppendString(lmonp.AppendString(status, "ready"), "simnet: peer host is dead"), false)
	f.Fuzz(func(t *testing.T, raw []byte, seed bool) {
		// A status frame parses into the failure it relays, or fails
		// naming why: never a panic, and never a rank outside the tree or
		// text over its bound.
		if st, err := (&Comm{size: 7}).parseStatus(raw); err == nil && (st.rank >= 7 || len(st.phase) > maxStatus || len(st.err.Error()) > maxStatus) {
			t.Fatalf("status frame parsed out of bounds: %+v", st)
		}
		chunkOp, endOp := uint32(opCollChunk), uint32(opCollEnd)
		if seed {
			chunkOp, endOp = opSeedChunk, opSeedEnd
		}
		fr, err := parseFrameOp(raw, chunkOp, endOp)
		if err != nil {
			return
		}
		if seed && fr.Last {
			t.Fatal("a seed frame parsed as a Last chunk")
		}
		again, err := parseFrameOp(encodeFrameOp(chunkOp, endOp, fr)[4:], chunkOp, endOp)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if again.H != fr.H || again.End != fr.End || again.Last != fr.Last || again.Total != fr.Total ||
			again.Sum != fr.Sum || again.Digest != fr.Digest || !bytes.Equal(again.Body, fr.Body) {
			t.Fatalf("round trip diverged: %+v vs %+v", fr, again)
		}
	})
}
