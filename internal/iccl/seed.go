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
	"launchmon/internal/vtime"
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
// Goroutine budget: none. The stream is scheduler state at every rank —
// the root's source and every other rank's parent link deliver frames as
// callbacks into the rank's seedEngine, which keeps forwarding while the
// daemon's own bootstrap blocks in its accept loop; child forwarders are
// outbox callbacks armed when the child joins and finished once its End
// frame is on the wire. The daemon's main is the one goroutine it holds,
// during launch as after it.

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
// whether the stream is finished (the End frame, or a failure), after
// which the source stops delivering. Frames must carry coll.OpSeed with a
// contiguous Index sequence, closed by an End frame; every chunk carries
// Sum64 of its body and the End frame carries the rolling digest of the
// RPDTAB chunk sums (frames from index 1 — index 0 is the FEData
// preamble, excluded from the digest). Tree links carry only that digest:
// every other rank's parent link computes each chunk's Sum64 on arrival,
// so every rank's SeqCheck admits the same kind of frame the root does.
type SeedSource func(emit func(coll.Frame, error) (done bool))

// SeedRouter enables rank-sliced seed delivery: instead of relaying every
// RPDTAB chunk to every child (each daemon ending up with the full K-entry
// table), every node scans the chunks it receives, keeps only the
// entries whose host maps to its own daemon rank, and re-packs the rest
// into fresh bounded chunk streams — one per child subtree, each with its
// own index sequence, per-chunk sums, and digest-bearing end marker. No
// daemon ever materializes more than O(chunk + own slice) table bytes.
type SeedRouter struct {
	// RankOf maps an RPDTAB host name to the daemon rank that owns it.
	// The map behind it is shared across the session (modeling a
	// node-local shared segment), so routing costs no per-daemon memory.
	RankOf func(host string) (int, bool)
	// ChunkBytes bounds re-packed chunk bodies per link (<= 0 selects
	// coll.DefaultChunkBytes).
	ChunkBytes int
}

// seedOutbox queues one child link's seed stream as encoded link messages
// (encodeFrameOp), ready for the child's forwarder to send as they are.
type seedOutbox = vtime.Chan[[]byte]

// fanOut queues one unchanged frame on every child outbox: the message it
// arrived in when there is one (an interior rank relays it verbatim), else
// one encoding shared by all of them.
func fanOut(outs []*seedOutbox, f coll.Frame) {
	if len(outs) == 0 {
		return
	}
	msg := f.Wire
	if msg == nil {
		msg = encodeFrameOp(opSeedChunk, opSeedEnd, f)
	}
	for _, out := range outs {
		out.Send(msg)
	}
}

// seedSplitter is the per-node routing state: one stream per destination
// — stream 0 the locally retained slice, stream 1+slot a child subtree —
// each a ChunkWriter whose frames carry a fresh contiguous index sequence
// (FEData stays frame 0 on every link, chunks start at 1).
type seedSplitter struct {
	rt     *SeedRouter
	rank   int
	fanout int
	local  *vtime.Chan[coll.Frame]
	outs   []*seedOutbox

	w  []*proctab.ChunkWriter // by stream
	ix []uint32               // last index emitted, by stream

	// Scratch of chunk, kept between calls: the stream of each pooled
	// string of the chunk in hand (-1 until an entry names it as its host),
	// and how many of the chunk's entries go to each stream.
	route []int
	share []int
}

func newSeedSplitter(rt *SeedRouter, cfg Config, local *vtime.Chan[coll.Frame], outs []*seedOutbox) *seedSplitter {
	cb := rt.ChunkBytes
	if cb <= 0 {
		cb = coll.DefaultChunkBytes
	}
	s := &seedSplitter{
		rt: rt, rank: cfg.Rank, fanout: cfg.Fanout,
		local: local, outs: outs,
		w:     make([]*proctab.ChunkWriter, 1+len(outs)),
		ix:    make([]uint32, 1+len(outs)),
		share: make([]int, 1+len(outs)),
	}
	for i := range s.w {
		i := i
		s.w[i] = proctab.NewChunkWriter(cb, func(chunk []byte, sum uint64) error {
			s.emit(i, coll.Frame{Body: chunk, Sum: sum})
			return nil
		})
	}
	return s
}

// emit numbers f as stream i's next frame and queues it: as it is for the
// local consumer, as a link message for a child's forwarder.
func (s *seedSplitter) emit(i int, f coll.Frame) {
	s.ix[i]++
	f.H = coll.Header{Op: coll.OpSeed, Index: s.ix[i]}
	if i == 0 {
		s.local.Send(f)
	} else {
		s.outs[i-1].Send(encodeFrameOp(opSeedChunk, opSeedEnd, f))
	}
}

// chunk routes one admitted seed frame. FEData (frame 0) is forwarded
// verbatim everywhere; an RPDTAB chunk is scanned and its entries — still
// the records they arrived as — are split between the local slice and the
// owning child subtrees. A host is resolved to its stream once per chunk,
// not once per entry, and every stream is told how many entries are coming
// before the first is added.
func (s *seedSplitter) chunk(f coll.Frame) error {
	if f.H.Index == 0 {
		s.local.Send(f)
		fanOut(s.outs, f)
		return nil
	}
	c, err := proctab.Scan(f.Body)
	if err != nil {
		return err
	}
	pool := c.Pool()
	s.route = s.route[:0]
	for range pool {
		s.route = append(s.route, -1)
	}
	for i, n := 0, c.Len(); i < n; i++ {
		host, _, _, _ := c.Entry(i)
		if s.route[host] < 0 {
			if s.route[host], err = s.streamOf(pool[host]); err != nil {
				return err
			}
		}
		s.share[s.route[host]]++
	}
	for i, n := range s.share {
		s.w[i].Grow(n)
		s.share[i] = 0
	}
	for i, n := 0, c.Len(); i < n; i++ {
		host, exe, pid, rank := c.Entry(i)
		if err := s.w[s.route[host]].AddRaw(pool[host], pool[exe], pid, rank); err != nil {
			return err
		}
	}
	return nil
}

// streamOf returns the stream the entries on host belong to.
func (s *seedSplitter) streamOf(host string) (int, error) {
	rk, ok := s.rt.RankOf(host)
	if !ok {
		return 0, fmt.Errorf("%w: no daemon rank for host %q in seed route", ErrProtocol, host)
	}
	if rk == s.rank {
		return 0, nil
	}
	slot := subtreeSlot(s.rank, s.fanout, len(s.outs), rk)
	if slot < 0 {
		return 0, fmt.Errorf("%w: seed entry for rank %d outside rank %d's subtree", ErrProtocol, rk, s.rank)
	}
	return 1 + slot, nil
}

// finish flushes every stream on the incoming End frame — the local one
// first — verifies the routed entry count against the end marker's claimed
// total, and closes each stream with its own total and digest.
func (s *seedSplitter) finish(f coll.Frame) error {
	var routed uint64
	for _, w := range s.w {
		if err := w.Flush(); err != nil {
			return err
		}
		routed += uint64(w.Count())
	}
	if routed != f.Total {
		return fmt.Errorf("%w: routed %d seed entries at rank %d, end marker says %d",
			ErrProtocol, routed, s.rank, f.Total)
	}
	// The End markers go to the children in slot order and to the local
	// consumer last — streams 1 … n, then 0. Same-instant sends to different
	// queues take their scheduler sequence numbers in this order, which is
	// the one every pin was taken with.
	for k := range s.w {
		i := (k + 1) % len(s.w)
		s.emit(i, coll.Frame{End: true, Total: uint64(s.w[i].Count()), Sum: s.w[i].Digest()})
	}
	// The writers keep their buffers between chunks; the stream is over.
	s.w, s.route = nil, nil
	return nil
}

// seedEngine is one rank's seed-stream state machine: streaming sequence
// validation plus routing (or verbatim fanout) of each admitted frame. It
// is only ever stepped from scheduler callbacks — the root's source, the
// parent link's framer everywhere else — which never overlap.
type seedEngine struct {
	cfg      Config
	seed     *Seed
	abort    func()
	split    *seedSplitter
	outs     []*seedOutbox
	chk      coll.SeqCheck
	entered  uint64
	srcBytes *obs.Gauge
}

// step admits one incoming frame, fanning it out locally and to the child
// outboxes, or fails the stream with the error that came in its place. It
// returns true when the stream is finished — the End frame was processed,
// or a failure aborted it.
func (e *seedEngine) step(f coll.Frame, err error) bool {
	if err != nil {
		return e.bail(fmt.Errorf("iccl: seed stream at rank %d: %w", e.cfg.Rank, err))
	}
	if e.cfg.Rank == 0 {
		// Total seed bytes entering the tree at the root: the
		// denominator of the per-link wire-byte invariants.
		e.entered += uint64(len(f.Body))
		if f.End {
			e.srcBytes.SetMax(e.entered)
		}
	}
	if f.H.Op != coll.OpSeed {
		return e.bail(fmt.Errorf("%w: %v frame in seed stream", ErrProtocol, f.H.Op))
	}
	// Streaming validation: per-chunk sums and, at End, the rolling
	// digest — every rank verifies the stream it saw without retaining it.
	if err := e.chk.AdmitFrame(f); err != nil {
		return e.bail(err)
	}
	if e.split != nil {
		var err error
		if f.End {
			err = e.split.finish(f)
		} else {
			err = e.split.chunk(f)
		}
		if err != nil {
			return e.bail(err)
		}
		return f.End
	}
	e.seed.local.Send(f)
	fanOut(e.outs, f)
	return f.End
}

// bail fails the stream with err and reports it finished.
func (e *seedEngine) bail(err error) bool {
	e.seed.fail(err)
	e.abort()
	return true
}

// Seed is one daemon's handle on an in-flight session-seed stream. Next
// yields the locally delivered frames (forwarding to children happens
// independently, as frames arrive); Wait blocks until every child
// forward has drained, which callers must do before issuing any other
// down-flowing traffic on the communicator.
type Seed struct {
	local *vtime.Chan[coll.Frame]
	wg    *vtime.WaitGroup

	// err is the stream's first error. Its writers are scheduler callbacks
	// and the daemon's own main between parks (a failed bootstrap), which
	// never overlap; main reads it after the park that local's Close or
	// wg's last Done ended, both of which follow the write.
	err error
}

// fail records the stream's first error (later ones keep the original).
func (s *Seed) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Next returns the next locally delivered seed frame, blocking in virtual
// time. The frame whose End is set is the last one. The park under Next is
// the one stack a quiescent daemon holds while its seed is in flight —
// deliberately shallow (a plain queue receive, no read/decode frames
// below it), because at a million daemons every KB of parked stack is a
// GB of simulator RSS.
func (s *Seed) Next() (coll.Frame, error) {
	f, ok := s.local.Recv()
	if !ok {
		if s.err != nil {
			return coll.Frame{}, s.err
		}
		return coll.Frame{}, fmt.Errorf("%w: seed stream aborted", ErrBootstrap)
	}
	return f, nil
}

// Wait blocks until every child forwarder has finished and returns the
// stream's first error. After a nil Wait (and a consumed End frame from
// Next) the communicator's links carry no more seed traffic.
func (s *Seed) Wait() error {
	s.wg.Wait()
	return s.err
}

// BootstrapSeedRouted is Bootstrap with the cut-through session-seed
// stream layered over the forming tree. src must be non-nil exactly at the
// root (rank 0); every other rank receives the stream from its parent. The
// returned Seed delivers the frames locally; the caller must drain it to
// the End frame and then Wait before using the communicator.
//
// With a non-nil router the locally delivered stream carries only this
// daemon's slice of the RPDTAB (plus the FEData preamble), and children
// receive freshly packed streams covering exactly their subtrees. With a
// nil router every frame is relayed verbatim everywhere (the MW fabric's
// table-less stream).
//
// On a bootstrap error the seed stream is aborted (Next and Wait report
// it); on a mid-stream link failure — a child's node dying while chunks
// are in flight — the affected forwarder records the error for Wait while
// bootstrap itself surfaces the broken tree.
func BootstrapSeedRouted(p *cluster.Proc, cfg Config, src SeedSource, rt *SeedRouter) (*Comm, *Seed, error) {
	cfg = cfg.withDefaults()
	if (cfg.Rank == 0) != (src != nil) {
		return nil, nil, fmt.Errorf("%w: seed source must be set at rank 0 only (rank %d)", ErrBootstrap, cfg.Rank)
	}
	pl := newSeedPlumbing(p, &cfg, src, rt)
	c, err := bootstrap(p, &cfg, pl.onParent, pl.onChild)
	if err != nil {
		pl.bail(err)
		return nil, nil, err
	}
	return c, pl.seed, nil
}

// seedPlumbing is one rank's seed-stream wiring, built before the tree
// forms: the local delivery channel, the per-child outboxes with their
// forwarder callbacks, and the bootstrap hooks that arm them as links
// appear. Construction lives in its own function — not inline in
// BootstrapSeedRouted — so the frame holding the engine, splitter, metric
// handles, and closure records pops before bootstrap's dial/accept
// machinery runs below it; the daemon's parked stack keeps only the thin
// caller chain (see bootstrap's stack note).
type seedPlumbing struct {
	seed     *Seed
	bail     func(error) bool // fail the stream: the engine's
	onParent func(*simnet.Conn)
	onChild  func(slot int, conn *simnet.Conn)
}

func newSeedPlumbing(p *cluster.Proc, cfg *Config, src SeedSource, rt *SeedRouter) *seedPlumbing {
	sim := p.Sim()
	seed := &Seed{local: vtime.NewChan[coll.Frame](sim), wg: vtime.NewWaitGroup(sim)}
	kids := Children(cfg.Rank, cfg.Size, cfg.Fanout)
	outs := make([]*seedOutbox, len(kids))
	for i := range kids {
		outs[i] = vtime.NewChan[[]byte](sim)
	}
	abort := func() {
		seed.local.Close()
		for i := range kids {
			outs[i].Close()
		}
	}

	// Observability handles (nil registry → all no-ops). seed.link.bytes.max
	// is the peak per-link forwarded byte count across the whole tree once
	// harvested — the measured quantity behind the O(table/K · subtree)
	// per-link claim of rank-sliced routing.
	fwdChunks := cfg.Metrics.Counter("seed.fwd.chunks")
	fwdBytes := cfg.Metrics.Counter("seed.fwd.bytes")
	linkMax := cfg.Metrics.Gauge("seed.link.bytes.max")
	queueMax := cfg.Metrics.Gauge("seed.queue.depth.max")

	eng := &seedEngine{
		cfg: *cfg, seed: seed, abort: abort, outs: outs,
		srcBytes: cfg.Metrics.Gauge("seed.src.bytes"),
	}
	if rt != nil {
		eng.split = newSeedSplitter(rt, *cfg, seed.local, outs)
	}

	// One forwarder per *joined* child, armed lazily from onChild and
	// finished after relaying the subtree's End frame (or when the stream
	// aborts / the child link dies mid-stream). A forwarder is not a
	// goroutine: link writes never block in virtual time, so relaying is a
	// per-frame outbox callback — a million-daemon tree forwards its whole
	// seed without parking a single stack on a child link. It sends the
	// queued messages as they are: a frame that is the same for every
	// child (the FEData preamble, a nil-router stream) is one buffer on all
	// the outboxes.
	startForwarder := func(i int, conn *simnet.Conn) {
		seed.wg.Add(1)
		var linkBytes uint64
		done := false
		finish := func() {
			done = true
			linkMax.SetMax(linkBytes)
			seed.wg.Done()
		}
		outs[i].Handle(func(msg []byte, ok bool) {
			if done {
				return // stream already finished or failed; drop stragglers
			}
			if !ok {
				finish()
				return
			}
			queueMax.SetMax(uint64(outs[i].Len()))
			if err := lmonp.SendFrame(conn, msg); err != nil {
				seed.fail(fmt.Errorf("iccl: seed forward to rank %d: %w", kids[i], err))
				finish()
				return
			}
			n := uint64(len(msg) - 4)
			fwdChunks.Inc()
			fwdBytes.Add(n)
			linkBytes += n
			if binary.BigEndian.Uint32(msg[4:]) == opSeedEnd {
				finish()
			}
		})
	}

	if src != nil {
		src(eng.step)
	}

	// Every other rank's stream is its parent link. A SerialFramer owns the
	// link while the seed is in flight, charging like the serial reader it
	// stands in for and detaching at the End frame's arrival, so the
	// bootstrap-era collective traffic that follows block-reads the same
	// conn. Decoding and engine admission run behind the horizon, like that
	// reader's. The framer takes whole messages: a frame keeps the one it
	// arrived in (coll.Frame.Wire) for the verbatim relay. It is the one
	// receive path that checks a tree stream, so a chunk's sum, which the
	// wire does not carry, is computed here for the engine's SeqCheck.
	onParent := func(conn *simnet.Conn) {
		fr := &SerialFramer{Sim: sim, Cost: PerMsgCost, Deliver: func(msg []byte) {
			f, err := parseFrameOp(msg[4:], opSeedChunk, opSeedEnd)
			if err == nil && !f.End {
				f.Sum = lmonp.Sum64(f.Body)
			}
			f.Wire = msg
			eng.step(f, err)
		}}
		conn.Handle(func(msg []byte, err error) {
			var raw []byte
			if err == nil {
				raw, err = lmonp.FrameFromMessage(msg)
			}
			if err != nil {
				fr.Behind(func() { eng.step(coll.Frame{}, err) })
				return
			}
			// Peek the opcode at arrival: the End frame (or a
			// protocol-violating opcode, which the deferred parse will
			// turn into an error) is the framer's last — detach so later
			// arrivals queue for blocking readers.
			if len(raw) < 4 || binary.BigEndian.Uint32(raw) != opSeedChunk {
				conn.Unhandle()
			}
			fr.Charge(msg)
		})
	}
	return &seedPlumbing{seed: seed, bail: eng.bail, onParent: onParent, onChild: startForwarder}
}
