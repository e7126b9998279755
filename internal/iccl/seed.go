package iccl

import (
	"encoding/binary"
	"fmt"

	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
	"launchmon/internal/proctab"
	"launchmon/internal/simnet"
)

// This file implements the cut-through session-seed stream of the launch
// pipeline: the RPDTAB (plus the piggybacked FEData) flows down the ICCL
// tree as bounded coll-codec chunks *while the tree is still forming*,
// instead of the root buffering the whole table and broadcasting it as
// one monolithic frame after bootstrap completes. Every daemon starts
// receiving as soon as its parent link exists (right after its join is
// sent, before its own subtree's ready wave), and forwards each chunk to
// a child the moment that child's join is accepted — so at no point does
// any node store-and-forward the full table, and the transfer overlaps
// the join/ready waves of the subtree below it.
//
// Goroutine budget: none. The stream is part of the rank's Forming record,
// which scheduler callbacks carry on — the root's owner (Feed) and every
// other rank's parent link deliver frames into it, which keeps routing while
// the record waits in its accept loop. A routed message is written to its
// child's link as it is routed, or held until the child's join is accepted.
// The record goes on to the ready gather once the rank's share is done: every
// child's End is written by then.

// Seed-stream opcodes on tree links (the frame layout is the shared
// coll.Frame codec, see encodeFrameOp).
const (
	opSeedChunk = 10
	opSeedEnd   = 11
)

// SeedRouter drives rank-sliced seed delivery: instead of relaying every
// RPDTAB chunk to every child (each daemon ending up with the full K-entry
// table), every node scans the chunks it receives, keeps only the
// entries whose host maps to its own daemon rank, and re-packs the rest
// into fresh bounded chunk streams — one per child subtree, each with its
// own index sequence, per-chunk sums, and digest-bearing end marker. A
// leaf, all of whose entries are its own, keeps its chunks as they
// arrived. No daemon ever materializes more than O(chunk + own slice)
// table bytes.
type SeedRouter struct {
	// RankOf maps an RPDTAB host name to the daemon rank that owns it.
	// The map behind it is shared across the session (modeling a
	// node-local shared segment), so routing costs no per-daemon memory.
	RankOf func(host string) (int, bool)
	// ChunkBytes bounds re-packed chunk bodies per link (<= 0 selects
	// coll.DefaultChunkBytes).
	ChunkBytes int
}

// TablelessRoute routes a stream that carries no table — FEData, then End,
// the MW fabric's: it owns no host.
var TablelessRoute = &SeedRouter{RankOf: func(string) (int, bool) { return 0, false }}

// seedSink is handed a rank's share of the stream: the FEData frame, each
// RPDTAB chunk with the chunk scanned (its entries the rank's own) and its
// Sum set, and the End frame whose Total counts the share's entries.
type seedSink = func(f coll.Frame, c proctab.Chunk) error

// seedRoute is a rank's routing of the admitted stream: a seedSplitter
// where the rank has children, a seedLeaf where it has none.
type seedRoute interface {
	chunk(f coll.Frame) error
	finish(f coll.Frame) error
}

// seedHosts resolves the hosts of a scanned chunk to a rank's streams —
// stream 0 the rank's own share, stream 1+slot child slot's subtree — once
// per host of the chunk, not once per entry, and counts each stream's share.
type seedHosts struct {
	rt     *SeedRouter
	rank   int
	fanout int
	kids   int

	// Scratch of resolve, kept between chunks: the stream of each pooled
	// string of the chunk in hand (-1 until an entry names it as its host),
	// and how many of the chunk's entries go to each stream.
	route []int
	share []int
}

func (h *seedHosts) init(rt *SeedRouter, cfg Config, kids int) {
	*h = seedHosts{rt: rt, rank: cfg.Rank, fanout: cfg.Fanout, kids: kids, share: make([]int, 1+kids)}
}

// resolve routes every host an entry of c names and adds c's entries to
// the shares of their streams.
func (h *seedHosts) resolve(c proctab.Chunk) (err error) {
	pool := c.Pool()
	h.route = h.route[:0]
	for range pool {
		h.route = append(h.route, -1)
	}
	for i, n := 0, c.Len(); i < n; i++ {
		host, _, _, _ := c.Entry(i)
		if h.route[host] < 0 {
			if h.route[host], err = h.streamOf(pool[host]); err != nil {
				return err
			}
		}
		h.share[h.route[host]]++
	}
	return nil
}

// streamOf returns the stream the entries on host belong to.
func (h *seedHosts) streamOf(host string) (int, error) {
	rk, ok := h.rt.RankOf(host)
	if !ok {
		return 0, fmt.Errorf("%w: no daemon rank for host %q in seed route", errProtocol, host)
	}
	if rk == h.rank {
		return 0, nil
	}
	slot := subtreeSlot(h.rank, h.fanout, h.kids, rk)
	if slot < 0 {
		return 0, fmt.Errorf("%w: seed entry for rank %d outside rank %d's subtree", errProtocol, rk, h.rank)
	}
	return 1 + slot, nil
}

// seedLeaf is a childless rank's route. Every entry it receives is its own,
// so it keeps the stream as it arrived: each chunk scanned once, its hosts
// checked as a splitter checks them (share[0] counts them), and handed to
// the sink with the sum its link computed; the End as it came, once the
// entries kept add up to its total. It renders nothing.
type seedLeaf struct {
	seedHosts
	sink seedSink
}

func (l *seedLeaf) chunk(f coll.Frame) error {
	if f.H.Index == 0 {
		return l.sink(f, proctab.Chunk{})
	}
	c, err := proctab.Scan(f.Body)
	if err != nil {
		return err
	}
	if err := l.resolve(c); err != nil {
		return err
	}
	return l.sink(f, c)
}

func (l *seedLeaf) finish(f coll.Frame) error {
	if kept := uint64(l.share[0]); kept != f.Total {
		return fmt.Errorf("%w: routed %d seed entries at rank %d, end marker says %d",
			errProtocol, kept, l.rank, f.Total)
	}
	return l.sink(f, proctab.Chunk{})
}

// seedSplitter is a rank with children's route: one stream per destination
// — stream 0 the locally retained slice, stream 1+slot a child subtree —
// each a ChunkWriter whose frames carry a fresh contiguous index sequence
// (FEData stays frame 0 on every link, chunks start at 1). A child stream's
// writer renders each chunk into the link message it travels in, behind
// seedChunkHead bytes the splitter fills in; the local stream's chunk is
// scanned once for the sink.
type seedSplitter struct {
	seedHosts
	local seedSink
	f     *Forming // where child streams go (Forming.forward)

	w  []*proctab.ChunkWriter // by stream
	ix []uint32               // last index emitted, by stream
}

func newSeedSplitter(rt *SeedRouter, cfg Config, local seedSink, f *Forming) *seedSplitter {
	cb := rt.ChunkBytes
	if cb <= 0 {
		cb = coll.DefaultChunkBytes
	}
	kids := len(f.held)
	s := &seedSplitter{
		local: local, f: f,
		w:  make([]*proctab.ChunkWriter, 1+kids),
		ix: make([]uint32, 1+kids),
	}
	s.init(rt, cfg, kids)
	s.w[0] = proctab.NewChunkWriter(cb, func(chunk []byte, sum uint64) error {
		c, err := proctab.Scan(chunk)
		if err != nil {
			return err
		}
		return s.local(coll.Frame{H: s.next(0), Body: chunk, Sum: sum}, c)
	})
	for i := 1; i < len(s.w); i++ {
		i := i
		s.w[i] = proctab.NewChunkWriterBehind(seedChunkHead, cb, func(msg []byte, _ uint64) error {
			s.f.forward(i-1, putSeedChunkHead(msg, s.next(i)))
			return nil
		})
	}
	return s
}

// next numbers stream i's next frame.
func (s *seedSplitter) next(i int) coll.Header {
	s.ix[i]++
	return coll.Header{Op: coll.OpSeed, Index: s.ix[i]}
}

// chunk routes one admitted seed frame. FEData (frame 0) goes unchanged
// everywhere, local consumer first: to every child the message it arrived
// in when there is one (an interior rank relays it verbatim), else one
// encoding shared by all of them. An RPDTAB chunk is scanned and its
// entries — still the records they arrived as — are split between the
// local slice and the owning child subtrees; every stream is told how many
// entries are coming before the first is added.
func (s *seedSplitter) chunk(f coll.Frame) error {
	if f.H.Index == 0 {
		if err := s.local(f, proctab.Chunk{}); err != nil {
			return err
		}
		msg := f.Wire
		if msg == nil {
			msg = encodeFrameOp(opSeedChunk, opSeedEnd, f)
		}
		for i := 0; i < s.kids; i++ {
			s.f.forward(i, msg)
		}
		return nil
	}
	c, err := proctab.Scan(f.Body)
	if err != nil {
		return err
	}
	if err := s.resolve(c); err != nil {
		return err
	}
	for i, n := range s.share {
		s.w[i].Grow(n)
		s.share[i] = 0
	}
	pool := c.Pool()
	for i, n := 0, c.Len(); i < n; i++ {
		host, exe, pid, rank := c.Entry(i)
		if err := s.w[s.route[host]].AddRaw(pool[host], pool[exe], pid, rank); err != nil {
			return err
		}
	}
	return nil
}

// finish flushes every stream on the incoming End frame — the local one
// first — verifies the routed entry count against the end marker's claimed
// total, and closes each stream with its own total and digest. A stream
// that carried no table (FEData, then End at index 1: the MW fabric's)
// stays one on every link: nothing is flushed.
func (s *seedSplitter) finish(f coll.Frame) error {
	var routed uint64
	for _, w := range s.w {
		if f.H.Index > 1 {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		routed += uint64(w.Count())
	}
	if routed != f.Total {
		return fmt.Errorf("%w: routed %d seed entries at rank %d, end marker says %d",
			errProtocol, routed, s.rank, f.Total)
	}
	// The End markers go to the children in slot order and to the local
	// consumer last, whose error is the one returned: once the share is
	// done, so is every child's stream. Same-instant sends on different
	// links take their scheduler sequence numbers in this order, which is
	// the one every pin was taken with.
	for i, w := range s.w[1:] {
		s.f.forward(i, encodeFrameOp(opSeedChunk, opSeedEnd, coll.Frame{H: s.next(1 + i), End: true, Total: uint64(w.Count()), Sum: w.Digest()}))
	}
	end := coll.Frame{H: s.next(0), End: true, Total: uint64(s.w[0].Count()), Sum: s.w[0].Digest()}
	// The writers keep their buffers between chunks; the stream is over.
	s.w, s.route = nil, nil
	return s.local(end, proctab.Chunk{})
}

// Feed hands rank 0's record the root's next seed frame. Its owner calls it
// from scheduler callbacks it subscribes before Run, once a frame, in order:
// frames carry coll.OpSeed with a contiguous Index sequence, closed by an End
// frame; every chunk carries Sum64 of its body and the End frame the rolling
// digest of the RPDTAB chunk sums (frames from index 1 — index 0 is the FEData
// preamble, excluded from the digest). Tree links carry only that digest:
// every other rank's parent link computes each chunk's Sum64 on arrival, so
// every rank's SeqCheck admits the same kind of frame the root does. A frame
// after the End is dropped; one fed to another rank, whose stream comes down
// its parent link, fails the stream.
func (f *Forming) Feed(fr coll.Frame) {
	if f.c.rank != 0 {
		f.bail(fmt.Errorf("%w: seed frame fed to rank %d, whose stream comes down its parent link", errProtocol, f.c.rank))
		return
	}
	f.admit(fr, nil)
}

// admit takes one incoming seed frame, routing it to the sink and the child
// links, or fails the stream with the error that came in its place. A frame
// after the rank's share, or its record, has ended is dropped.
func (f *Forming) admit(fr coll.Frame, err error) {
	switch {
	case f.shared || f.done:
		return
	case err != nil:
		f.bail(fmt.Errorf("iccl: seed stream at rank %d: %w", f.c.rank, err))
		return
	case f.c.rank == 0:
		// Total seed bytes entering the tree at the root: the
		// denominator of the per-link wire-byte invariants.
		f.entered += uint64(len(fr.Body))
		if fr.End {
			f.reg.Gauge("seed.src.bytes").SetMax(f.entered)
		}
	}
	if fr.H.Op != coll.OpSeed {
		f.bail(fmt.Errorf("%w: %v frame in seed stream", errProtocol, fr.H.Op))
		return
	}
	// Streaming validation: per-chunk sums and, at End, the rolling
	// digest — every rank verifies the stream it saw without retaining it.
	if err = f.chk.AdmitFrame(fr); err == nil && fr.End {
		err = f.router.finish(fr)
	} else if err == nil {
		err = f.router.chunk(fr)
	}
	switch {
	case err != nil:
		f.bail(err)
	case fr.End:
		f.shareDone()
	}
}

// bail fails the stream with err: the share is over. A rank still forming
// tears its tree down.
func (f *Forming) bail(err error) {
	f.fail(err)
	if !f.shared {
		f.shareDone()
	}
	if !f.done && f.phase < phSeed {
		f.c.Close() // last: it wakes the record's wait on a link
	}
}

// fail records the stream's first error (later ones keep the original).
func (f *Forming) fail(err error) {
	if f.serr == nil {
		f.serr = err
	}
}

// shareDone finishes the rank's share, and with it the rank's stream; the
// record goes on when it waits for the stream (phSeed), inline: this is
// where the rank's goroutine woke from its wait on the stream.
func (f *Forming) shareDone() {
	if f.shared = true; f.phase == phSeed {
		f.Fire()
	}
}

// forward writes msg, the next message of child slot's stream, to the
// child's link, or holds it until the child's join is accepted (onChild).
// A link write never blocks in virtual time: nothing parks on a child link.
func (f *Forming) forward(slot int, msg []byte) {
	conn := f.c.children[slot]
	if conn == nil {
		f.held[slot] = append(f.held[slot], msg)
		f.reg.Gauge("seed.queue.depth.max").SetMax(uint64(len(f.held[slot])))
		return
	}
	if err := lmonp.SendFrame(conn, msg); err != nil {
		rank := f.c.childRank(slot)
		f.fail(fmt.Errorf("iccl: seed forward to rank %d: %w", rank, &peerError{rank: rank, phase: "seed", err: err}))
		return
	}
	n := uint64(len(msg) - 4)
	f.reg.Counter("seed.fwd.chunks").Inc()
	f.reg.Counter("seed.fwd.bytes").Add(n)
	f.sent[slot] += n
	f.reg.Gauge("seed.link.bytes.max").SetMax(f.sent[slot])
}

// onChild writes what was held for child slot, whose join was just
// accepted.
func (f *Forming) onChild(slot int) {
	held := f.held[slot]
	f.held[slot] = nil
	for _, msg := range held {
		f.forward(slot, msg)
	}
}

// onParent makes the parent link every non-root rank's stream. A
// SerialFramer owns the link while the seed is in flight, charging like the
// serial reader it stands in for and detaching at the End frame's arrival,
// so the walks that follow read the same conn. A rank still forming then
// watches the link as a rank without a stream does (Comm.watchParent): its
// end fails the tree at once, not behind the End's charge.
// Decoding and admission run behind the horizon, like that reader's. The
// framer takes whole messages: a frame keeps the one it arrived in
// (coll.Frame.Wire) for the verbatim relay of FEData. It is the one receive
// path that checks a tree stream: it sums each chunk, which the wire does
// not, once, for the SeqCheck and the sink.
func (f *Forming) onParent(conn *simnet.Conn) {
	fr := &SerialFramer{Sim: f.c.p.Sim(), Cost: PerMsgCost, Deliver: func(msg []byte) {
		frame, err := parseFrameOp(msg[4:], opSeedChunk, opSeedEnd)
		if err == nil && !frame.End {
			frame.Sum = lmonp.Sum64(frame.Body)
		}
		frame.Wire = msg
		f.admit(frame, err)
	}}
	conn.Handle(func(msg []byte, err error) {
		var raw []byte
		if err == nil {
			raw, err = lmonp.FrameFromMessage(msg)
		}
		if err != nil {
			fr.Behind(func() { f.admit(coll.Frame{}, err) })
			return
		}
		// Peek the opcode at arrival: the End frame (or a
		// protocol-violating opcode, which the deferred parse will
		// turn into an error) is the framer's last.
		if len(raw) < 4 || binary.BigEndian.Uint32(raw) != opSeedChunk {
			conn.Unhandle()
			if !f.done && f.phase < phSeed {
				f.watched = true
				f.c.watchParent(true)
			}
		}
		fr.Charge(msg)
	})
}
