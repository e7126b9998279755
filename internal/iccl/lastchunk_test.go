package iccl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
)

// linkCount is what one end of a tree link was handed of the test's stream.
type linkCount struct{ chunks, lasts, ends, credits int }

// TestLinkMessagesPerStream counts, link by link on the 13-rank wire tree
// under window 4, what one stream puts on it: n messages, the last a chunk
// carrying the end marker (coll.Frame.Last), and no end marker of its own.
// A gather's stream, whose length its packer does not know, earns n−1
// credits back, none for the last chunk; a broadcast's or a reduce's, whose
// origin knows it, max(0, n−4): none for its Tail, the last window messages
// (TestCreditsOnlyWhatTheSenderCanSpend has the rule). Every operation that
// streams data is run with one-chunk and with n-chunk streams.
func TestLinkMessagesPerStream(t *testing.T) {
	const window = 4
	one := func(int) int { return 1 }
	subtree := func(child int) int { return len(SubtreeRanks(child, wireN, wireFanout)) }
	raw := func(data []byte) []coll.Frame {
		return coll.RawFrames(coll.OpBroadcast, relayTag, "", data, opChunk)
	}
	for _, tc := range []struct {
		name   string
		chunk  int
		fe     []coll.Frame
		down   bool          // the stream flows parent → child
		packed bool          // a packer's stream, of a length its origin does not know
		n      func(int) int // the stream's messages on a child's link
		call   func(pl *Plane, rank int) error
	}{
		{"broadcast/1", opChunk, raw(opPart(0)), true, false, one, func(pl *Plane, _ int) error {
			_, err := pl.BroadcastTag(relayTag)
			return err
		}},
		{"broadcast/8", opChunk, raw(opPayload), true, false, func(int) int { return 8 }, func(pl *Plane, _ int) error {
			_, err := pl.BroadcastTag(relayTag)
			return err
		}},
		{"gather/1", 4096, nil, false, true, one, func(pl *Plane, rank int) error {
			return pl.GatherTag(relayTag, opPart(rank))
		}},
		{"gather/subtree", opChunk, nil, false, true, subtree, func(pl *Plane, rank int) error {
			return pl.GatherTag(relayTag, opPart(rank)) // an entry a chunk
		}},
		{"reduce/1", opChunk, nil, false, false, one, func(pl *Plane, _ int) error {
			return pl.ReduceTag(relayTag, u64(1), "sum")
		}},
		{"reduce/8", opChunk, nil, false, false, func(int) int { return 8 }, func(pl *Plane, _ int) error {
			return pl.ReduceTag(relayTag, opPayload, "sum")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, _ := countLinkMessages(t, tc.chunk, window, tc.fe, relayTag, tc.call)
			for child := 1; child < wireN; child++ {
				parent := Parent(child, wireFanout)
				rx, tx := [2]int{parent, child}, [2]int{child, parent} // [receiver, sender]
				if tc.down {
					rx, tx = tx, rx
				}
				n := tc.n(child)
				want, back := linkCount{chunks: n - 1, lasts: 1}, linkCount{credits: creditsFor(n, window, tc.packed)}
				if got[rx] != want || got[tx] != back {
					t.Errorf("link %d–%d: data side %+v, want %+v; credit side %+v, want %+v",
						parent, child, got[rx], want, got[tx], back)
				}
			}
		})
	}
}

// TestCreditsOnlyWhatTheSenderCanSpend holds the credit rule on the 13-rank
// fanout-3 tree for windows 1, 4 and 32 and streams of n = 1, w−1, w, w+1
// and 2w+1 messages a link: a Broadcast from the front end, a Reduce, and
// both phases of an AllReduce and an AllGather. Every operation completes
// with its result, no rank ever queues more than w chunks of one stream on
// one link (coll.queue.depth.max), and each link carries back, for a stream
// of n messages whose origin knew its length, max(0, n−w) credits — a
// sender starting with w can spend no more — and for a packer's stream (an
// AllGather's up phase), n−1. An AllGather's table of 13 n-byte entries
// travels in however many chunks it packs into, counted from the stream
// itself.
func TestCreditsOnlyWhatTheSenderCanSpend(t *testing.T) {
	const treeTag = coll.MaxUserTag + 1 // the first of the tree sequence
	type stream struct {
		n      int // the messages it puts on a link; 0 for a count taken from the stream
		packed bool
	}
	for _, w := range []int{1, 4, 32} {
		var ns []int
		for _, n := range []int{1, w - 1, w, w + 1, 2*w + 1} {
			if n >= 1 && !slices.Contains(ns, n) {
				ns = append(ns, n)
			}
		}
		for _, n := range ns {
			payload := relayPayload(n, opChunk) // n chunks
			blob := func(rk int) []byte { return bytes.Repeat([]byte{byte(rk + 1)}, n) }
			table := make([]coll.Entry, wireN)
			for rk := range table {
				table[rk] = coll.Entry{Rank: rk, Blob: blob(rk)}
			}
			tableMsgs := len(coll.Merged(coll.EntryFrames(coll.OpAllGather, treeTag, table, opChunk), w))
			for _, tc := range []struct {
				name     string
				tag      uint32
				fe       []coll.Frame
				up, down stream
				call     func(pl *Plane, rank int) error
			}{
				{"Broadcast", relayTag, coll.RawFrames(coll.OpBroadcast, relayTag, "", payload, opChunk),
					stream{}, stream{n: n}, func(pl *Plane, _ int) error {
						got, err := pl.BroadcastTag(relayTag)
						if err == nil && !bytes.Equal(got, payload) {
							err = errors.New("broadcast delivered another payload")
						}
						return err
					}},
				{"Reduce", relayTag, nil, stream{n: n}, stream{}, func(pl *Plane, _ int) error {
					return pl.ReduceTag(relayTag, payload, "sum")
				}},
				{"AllReduce", treeTag, nil, stream{n: n}, stream{n: n}, func(pl *Plane, _ int) error {
					got, err := pl.AllReduce(payload, "sum")
					if err == nil && len(got) != len(payload) {
						err = fmt.Errorf("allreduce returned %d bytes", len(got))
					}
					return err
				}},
				{"AllGather", treeTag, nil, stream{packed: true}, stream{n: tableMsgs}, func(pl *Plane, rank int) error {
					all, err := pl.AllGather(blob(rank))
					for rk := 0; err == nil && rk < wireN; rk++ {
						if len(all) != wireN || !bytes.Equal(all[rk], blob(rk)) {
							err = fmt.Errorf("allgather table wrong at rank %d", rk)
						}
					}
					return err
				}},
			} {
				t.Run(fmt.Sprintf("window%d/n%d/%s", w, n, tc.name), func(t *testing.T) {
					got, r := countLinkMessages(t, opChunk, w, tc.fe, tc.tag, tc.call)
					// check holds one direction of a link: what the receiver
					// was handed of the stream, and the credits its sender was
					// handed back.
					check := func(dir string, rx, tx [2]int, s stream, goes bool) {
						msgs := got[rx].chunks + got[rx].lasts + got[rx].ends
						switch {
						case !goes:
							msgs = 0
						case s.n > 0 && msgs != s.n:
							t.Errorf("link %d–%d %s: %d messages, want %d", rx[0], rx[1], dir, msgs, s.n)
						case msgs == 0:
							t.Errorf("link %d–%d %s: no message", rx[0], rx[1], dir)
						}
						if want := creditsFor(msgs, w, s.packed); goes && got[tx].credits != want || !goes && got[tx].credits != 0 {
							t.Errorf("link %d–%d %s: %d messages earned %d credits, want %d",
								rx[0], rx[1], dir, msgs, got[tx].credits, creditsFor(msgs, w, s.packed))
						}
					}
					for child := 1; child < wireN; child++ {
						parent := Parent(child, wireFanout)
						check("up", [2]int{parent, child}, [2]int{child, parent}, tc.up, tc.up != stream{})
						check("down", [2]int{child, parent}, [2]int{parent, child}, tc.down, tc.down != stream{})
					}
					var depth uint64
					for rk, reg := range r.regs {
						d := reg.Snapshot().Gauges["coll.queue.depth.max"]
						if d > uint64(w) {
							t.Errorf("rank %d queued %d chunks of one stream on one link, window %d", rk, d, w)
						}
						depth = max(depth, d)
					}
					if depth == 0 {
						t.Error("no rank queued a chunk: the depth gauge is not read")
					}
				})
			}
		}
	}
}

// creditsFor is what a stream of n messages on a link earns back under the
// window: the credits of the messages before its Tail, or of every message
// but its last when it is a packer's, whose length nobody knew.
func creditsFor(n, window int, packed bool) int {
	if packed {
		return n - 1
	}
	return max(0, n-window)
}

// countLinkMessages runs call on every rank of the wire tree under the
// window, the root's front end sending fe, and counts what each link end is
// handed of the stream of tag, keyed [receiving rank, sending rank]; the
// rig's registries hold each rank's gauges. Every credit a rank sends for
// the stream must be the one message its operation built.
func countLinkMessages(t *testing.T, chunk, window int, fe []coll.Frame, tag uint32, call func(pl *Plane, rank int) error) (map[[2]int]linkCount, *relayRig) {
	t.Helper()
	got := map[[2]int]linkCount{}
	creditMsg := map[int]*byte{} // by sending rank
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
			if m, ok := creditMsg[key[1]]; ok && m != &msg[0] {
				t.Errorf("rank %d sent a credit of tag %d in a second message", key[1], tag)
			}
			creditMsg[key[1]] = &msg[0]
		default:
			return
		}
		got[key] = c
	}
	defer func() { sortHook = nil }()
	r := newRelayRig(t, wireN)
	d := &feDriver{send: fe}
	r.run(t, wireFanout, func(c *Comm, p *cluster.Proc) error {
		pl := d.plane(c, chunk, window)
		if err := warmUp(c); err != nil {
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
	return got, r
}

// TestTailRoundTripsOnTreeLinks: Header.Tail rides the op byte on a tree
// link — a chunk, a Last chunk and a bare End keep it through encodeFrameOp
// and parseFrameOp, in as many bytes as without it.
func TestTailRoundTripsOnTreeLinks(t *testing.T) {
	raw := coll.RawFrames(coll.OpBroadcast, relayTag, "", []byte("twelve bytes"), 8)
	for _, f := range []coll.Frame{
		raw[0],
		coll.Merged(raw, 2)[1],
		{H: coll.Header{Op: coll.OpReduce, Tag: relayTag, Index: 1, Filter: "sum"}, End: true, Total: 8},
	} {
		f.H.Tail = false
		plain := encodeFrameOp(opCollChunk, opCollEnd, f)
		f.H.Tail = true
		msg := encodeFrameOp(opCollChunk, opCollEnd, f)
		got, err := parseFrameOp(msg[4:], opCollChunk, opCollEnd)
		if err != nil || got.H != f.H || got.End != f.End || got.Last != f.Last || !bytes.Equal(got.Body, f.Body) {
			t.Fatalf("%+v: parsed %+v, %v", f, got, err)
		}
		if len(msg) != len(plain) {
			t.Errorf("%+v: %d bytes with the Tail bit, %d without", f.H, len(msg), len(plain))
		}
	}
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
	good := encodeFrameOp(opCollChunk, opCollEnd, coll.Merged(stream, 0)[0])[4:]
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
			if err := warmUp(c); err != nil {
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
// Tail or not, and the seed stream's frames. Nothing may panic, whatever
// parses must re-encode to a message that parses to the same frame, and the
// seed stream's opcodes never parse to a Last chunk.
func FuzzTreeChunkDecode(f *testing.F) {
	reduce := func() []coll.Frame { return coll.RawFrames(coll.OpReduce, 9, "sum", make([]byte, 24), 8) }
	frames := reduce() // chunks and a bare End
	frames = append(frames, coll.Merged(reduce(), 0)...)
	frames = append(frames, coll.Merged(reduce(), 2)...) // the last two a Tail
	frames = append(frames, coll.Merged(coll.EntryFrames(coll.OpGather, relayTag, []coll.Entry{{Rank: 1, Blob: []byte("mine")}}, 0), 0)...)
	frames = append(frames, coll.Merged(coll.RawFrames(coll.OpBroadcast, 1, "", nil, 0), 1)...) // an empty payload
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
