package iccl

import (
	"encoding/binary"
	"fmt"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
	"launchmon/internal/obs"
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
// Goroutine budget: none. The stream is one record a rank (Seed) that
// scheduler callbacks carry on — the root's source and every other rank's
// parent link deliver frames into it, which keeps routing while the rank's
// Forming record waits in its accept loop. A routed message is written to
// its child's link as it is routed, or held until the child's join is
// accepted. The stream lives in the rank's Forming record, which goes on to
// the ready gather once the rank's share is done: every child's End is
// written by then.

// Seed-stream opcodes on tree links (the frame layout is the shared
// coll.Frame codec, see encodeFrameOp).
const (
	opSeedChunk = 10
	opSeedEnd   = 11
)

// SeedSource subscribes the tree root to its seed frames (the master
// daemon's arrive on its front-end connection). It is called once, before
// the tree forms, and must not block: it arranges for emit to run on the
// vtime scheduler — never on the caller's stack — once per frame, in
// order, or once with the error that broke the stream. emit reports
// whether the stream is finished (the End frame, or a failure); frames
// after that are dropped, an error still fails a forming tree: the
// source's link is the root's parent link until Wait. Frames must carry
// coll.OpSeed with a contiguous Index sequence, closed by an End frame;
// every chunk carries Sum64 of its body and the End frame the rolling
// digest of the RPDTAB chunk sums (frames from index 1 — index 0 is the
// FEData preamble, excluded from the digest). Tree links carry only that
// digest: every other rank's parent link computes each chunk's Sum64 on
// arrival, so every rank's SeqCheck admits the same kind of frame the root
// does.
type SeedSource func(emit func(coll.Frame, error) (done bool))

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
	seed  *Seed // where child streams go (Seed.forward)

	w  []*proctab.ChunkWriter // by stream
	ix []uint32               // last index emitted, by stream
}

func newSeedSplitter(rt *SeedRouter, cfg Config, local seedSink, seed *Seed) *seedSplitter {
	cb := rt.ChunkBytes
	if cb <= 0 {
		cb = coll.DefaultChunkBytes
	}
	kids := len(seed.held)
	s := &seedSplitter{
		local: local, seed: seed,
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
			s.seed.forward(i-1, putSeedChunkHead(msg, s.next(i)))
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
			s.seed.forward(i, msg)
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
		s.seed.forward(i, encodeFrameOp(opSeedChunk, opSeedEnd, coll.Frame{H: s.next(1 + i), End: true, Total: uint64(w.Count()), Sum: w.Digest()}))
	}
	end := coll.Frame{H: s.next(0), End: true, Total: uint64(s.w[0].Count()), Sum: s.w[0].Digest()}
	// The writers keep their buffers between chunks; the stream is over.
	s.w, s.route = nil, nil
	return s.local(end, proctab.Chunk{})
}

// Seed is one rank's record of the session-seed stream, part of the rank's
// Forming record and built before the tree forms. Scheduler callbacks carry
// it on — the root's source or the parent link's framer step it with each
// frame, which it validates and routes to the caller's sink and the child
// links — and they never overlap. The end of the rank's share hands the
// rank on to its ready gather.
type Seed struct {
	f      *Forming
	router seedRoute
	reg    *obs.Registry // where the stream's counters and gauges go (nil: nowhere)
	chk    coll.SeqCheck

	entered uint64 // seed bytes that entered the tree here (the root)

	// held keeps each child's messages, routed before its join was
	// accepted, for onChild to write; sent counts the bytes written to each
	// child's link.
	held [][][]byte
	sent []uint64

	// shared marks the rank's share finished: its End handed to the sink
	// (every child's End is written before it), or the stream failed.
	shared bool

	// forming is set while bootstrap forms the rank's tree, for bail to
	// tear down.
	forming bool

	// err is the stream's first error. Its writers are scheduler callbacks
	// and the Forming record (a failed bootstrap), which never overlap.
	err error

	// watched marks the parent link handed back, its end watched for, when
	// the End frame arrived while the rank formed.
	watched bool
}

// init builds rank cfg.Rank's stream in f and subscribes it to src at the
// root. Observability goes to cfg.Metrics (nil: nowhere): seed.link.bytes.max
// is the peak per-link forwarded byte count across the whole tree once
// harvested — the measured quantity behind the O(table/K · subtree)
// per-link claim of rank-sliced routing.
func (s *Seed) init(f *Forming, cfg *Config, src SeedSource, rt *SeedRouter, sink seedSink) {
	kids := childCount(cfg.Rank, cfg.Size, cfg.Fanout)
	*s = Seed{f: f, held: make([][][]byte, kids), sent: make([]uint64, kids), reg: cfg.Metrics}
	for _, name := range [...]string{"seed.fwd.chunks", "seed.fwd.bytes"} {
		s.reg.Counter(name) // every rank's snapshot names them
	}
	for _, name := range [...]string{"seed.link.bytes.max", "seed.queue.depth.max", "seed.src.bytes"} {
		s.reg.Gauge(name)
	}
	if kids > 0 {
		s.router = newSeedSplitter(rt, *cfg, sink, s)
	} else {
		leaf := &seedLeaf{sink: sink}
		leaf.init(rt, *cfg, 0)
		s.router = leaf
	}
	if src != nil {
		src(s.step)
	}
}

// step admits one incoming frame, routing it to the sink and the child
// links, or fails the stream with the error that came in its place. It
// returns true when the stream is finished — the End frame was processed,
// or a failure aborted it; a frame after that is dropped, an error fails
// what still waits on the stream.
func (s *Seed) step(f coll.Frame, err error) bool {
	if s.shared {
		if err != nil {
			s.bail(err)
		}
		return true
	}
	if err != nil {
		return s.bail(fmt.Errorf("iccl: seed stream at rank %d: %w", s.f.c.rank, err))
	}
	if s.f.c.rank == 0 {
		// Total seed bytes entering the tree at the root: the
		// denominator of the per-link wire-byte invariants.
		s.entered += uint64(len(f.Body))
		if f.End {
			s.reg.Gauge("seed.src.bytes").SetMax(s.entered)
		}
	}
	if f.H.Op != coll.OpSeed {
		return s.bail(fmt.Errorf("%w: %v frame in seed stream", errProtocol, f.H.Op))
	}
	// Streaming validation: per-chunk sums and, at End, the rolling
	// digest — every rank verifies the stream it saw without retaining it.
	if err := s.chk.AdmitFrame(f); err != nil {
		return s.bail(err)
	}
	if f.End {
		err = s.router.finish(f)
	} else {
		err = s.router.chunk(f)
	}
	if err != nil {
		return s.bail(err)
	}
	if f.End {
		s.shareDone()
	}
	return f.End
}

// bail fails the stream with err and reports it finished: the share is
// over. A rank still forming tears its tree down.
func (s *Seed) bail(err error) bool {
	s.fail(err)
	if !s.shared {
		s.shareDone()
	}
	if s.forming {
		s.forming = false
		s.f.c.Close() // last: it wakes the Forming record's wait on a link
	}
	return true
}

// fail records the stream's first error (later ones keep the original).
func (s *Seed) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// shareDone finishes the rank's share, and with it the rank's stream; the
// Forming record goes on when it waits for the stream (phSeed), inline:
// this is where the rank's goroutine woke from its wait on the stream.
func (s *Seed) shareDone() {
	if s.shared = true; s.f.phase == phSeed {
		s.f.Fire()
	}
}

// forward writes msg, the next message of child slot's stream, to the
// child's link, or holds it until the child's join is accepted (onChild).
// A link write never blocks in virtual time: nothing parks on a child link.
func (s *Seed) forward(slot int, msg []byte) {
	conn := s.f.c.children[slot]
	if conn == nil {
		s.held[slot] = append(s.held[slot], msg)
		s.reg.Gauge("seed.queue.depth.max").SetMax(uint64(len(s.held[slot])))
		return
	}
	if err := lmonp.SendFrame(conn, msg); err != nil {
		rank := s.f.c.childRank(slot)
		s.fail(fmt.Errorf("iccl: seed forward to rank %d: %w", rank, &peerError{rank: rank, phase: "seed", err: err}))
		return
	}
	n := uint64(len(msg) - 4)
	s.reg.Counter("seed.fwd.chunks").Inc()
	s.reg.Counter("seed.fwd.bytes").Add(n)
	s.sent[slot] += n
	s.reg.Gauge("seed.link.bytes.max").SetMax(s.sent[slot])
}

// onChild writes what was held for child slot, whose join was just
// accepted.
func (s *Seed) onChild(slot int) {
	held := s.held[slot]
	s.held[slot] = nil
	for _, msg := range held {
		s.forward(slot, msg)
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
func (s *Seed) onParent(conn *simnet.Conn) {
	fr := &SerialFramer{Sim: s.f.c.p.Sim(), Cost: PerMsgCost, Deliver: func(msg []byte) {
		f, err := parseFrameOp(msg[4:], opSeedChunk, opSeedEnd)
		if err == nil && !f.End {
			f.Sum = lmonp.Sum64(f.Body)
		}
		f.Wire = msg
		s.step(f, err)
	}}
	conn.Handle(func(msg []byte, err error) {
		var raw []byte
		if err == nil {
			raw, err = lmonp.FrameFromMessage(msg)
		}
		if err != nil {
			fr.Behind(func() { s.step(coll.Frame{}, err) })
			return
		}
		// Peek the opcode at arrival: the End frame (or a
		// protocol-violating opcode, which the deferred parse will
		// turn into an error) is the framer's last.
		if len(raw) < 4 || binary.BigEndian.Uint32(raw) != opSeedChunk {
			conn.Unhandle()
			if s.forming {
				s.watched = true
				s.f.c.watchParent(nil, true)
			}
		}
		fr.Charge(msg)
	})
}

// BootstrapSeedRouted is Bootstrap with the cut-through session-seed
// stream layered over the forming tree, carried on to ready with r. src
// must be non-nil exactly at the root (rank 0); every other rank receives
// the stream from its parent. Every rank routes it with rt: sink is handed
// this rank's share — the FEData frame, the chunks of its slice of the
// RPDTAB, each with c its scan, then the End frame whose Total is the
// slice's entry count — on the scheduler as each is routed (a childless
// rank's as it arrived), and children receive freshly packed streams
// covering exactly their subtrees. A table-less stream's router need own no
// host. sink must not block; an error it returns fails the stream.
//
// Once the rank's tree has formed, its share has reached the sink and every
// child forward has finished, r is handed the rank's seed and the ready
// gather and fold follow; BootstrapSeedRouted returns once r reports the
// rank ready — without r, at that point. After a nil return the
// communicator's links carry no more seed traffic.
//
// On a bootstrap error the seed stream is aborted (and a stream that fails
// first fails the bootstrap with its error); on a mid-stream link failure
// — a child's node dying while chunks are in flight — the affected
// forwarder records the stream's error, which the rank returns.
func BootstrapSeedRouted(p *cluster.Proc, cfg Config, src SeedSource, rt *SeedRouter, sink func(f coll.Frame, c proctab.Chunk) error, r Ready) (*Comm, error) {
	cfg = cfg.withDefaults()
	if (cfg.Rank == 0) != (src != nil) {
		return nil, fmt.Errorf("%w: seed source must be set at rank 0 only (rank %d)", errBootstrap, cfg.Rank)
	}
	f := &Forming{r: r, seeded: true}
	f.seed.init(f, &cfg, src, rt, sink)
	return form(p, &cfg, f)
}
