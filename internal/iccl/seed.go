package iccl

import (
	"encoding/binary"
	"fmt"
	"sync"

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
// Goroutine budget: only ranks that must forward concurrently with their
// own bootstrap — the root and interior nodes, whose accept loop blocks
// while upstream chunks keep arriving — run a pump goroutine, and child
// forwarders are spawned lazily when the child joins and exit once its
// End frame is on the wire. Leaves (the overwhelming majority of a k-ary
// tree) spawn nothing: their consumer pulls frames straight off the
// parent link inside Seed.Next, with identical virtual-time charging.

// Seed-stream opcodes on tree links (the frame layout is the shared
// coll.Frame codec, see encodeFrameOp).
const (
	opSeedChunk = 10
	opSeedEnd   = 11
)

// SeedSource yields successive seed frames at the tree root (the master
// daemon pulls them off its front-end connection as they arrive). Frames
// must carry coll.OpSeed with a contiguous Index sequence, closed by an
// End frame; every chunk carries Sum64 of its body and the End frame
// carries the rolling digest of the RPDTAB chunk sums (frames from
// index 1 — index 0 is the FEData preamble, excluded from the digest).
type SeedSource func() (coll.Frame, error)

// SeedRouter enables rank-sliced seed delivery: instead of relaying every
// RPDTAB chunk to every child (each daemon ending up with the full K-entry
// table), every node decodes the chunks it receives, keeps only the
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

// seedSplitter is the per-node routing state: one ChunkWriter per child
// slot plus one for the locally retained slice, each emitting frames with
// a fresh contiguous index sequence (FEData stays frame 0 on every link,
// chunks start at 1).
type seedSplitter struct {
	rt     *SeedRouter
	rank   int
	fanout int
	local  *vtime.Chan[coll.Frame]
	outs   []*seedOutbox

	locW   *proctab.ChunkWriter
	locIx  uint32
	slotW  []*proctab.ChunkWriter
	slotIx []uint32
}

func newSeedSplitter(rt *SeedRouter, cfg Config, local *vtime.Chan[coll.Frame], outs []*seedOutbox) *seedSplitter {
	cb := rt.ChunkBytes
	if cb <= 0 {
		cb = coll.DefaultChunkBytes
	}
	s := &seedSplitter{
		rt: rt, rank: cfg.Rank, fanout: cfg.Fanout,
		local: local, outs: outs,
		slotW:  make([]*proctab.ChunkWriter, len(outs)),
		slotIx: make([]uint32, len(outs)),
	}
	for slot := range outs {
		slot := slot
		s.slotW[slot] = proctab.NewChunkWriter(cb, func(chunk []byte, sum uint64) error {
			s.slotIx[slot]++
			s.outs[slot].Send(encodeFrameOp(opSeedChunk, opSeedEnd, coll.Frame{
				H: coll.Header{Op: coll.OpSeed, Index: s.slotIx[slot]}, Body: chunk, Sum: sum,
			}))
			return nil
		})
	}
	s.locW = proctab.NewChunkWriter(cb, func(chunk []byte, sum uint64) error {
		s.locIx++
		s.local.Send(coll.Frame{
			H: coll.Header{Op: coll.OpSeed, Index: s.locIx}, Body: chunk, Sum: sum,
		})
		return nil
	})
	return s
}

// chunk routes one admitted seed frame. FEData (frame 0) is forwarded
// verbatim everywhere; RPDTAB chunks are decoded and their entries split
// between the local slice and the owning child subtrees.
func (s *seedSplitter) chunk(f coll.Frame) error {
	if f.H.Index == 0 {
		s.local.Send(f)
		fanOut(s.outs, f)
		return nil
	}
	entries, err := proctab.Decode(f.Body)
	if err != nil {
		return err
	}
	for _, d := range entries {
		rk, ok := s.rt.RankOf(d.Host)
		if !ok {
			return fmt.Errorf("%w: no daemon rank for host %q in seed route", ErrProtocol, d.Host)
		}
		if rk == s.rank {
			if err := s.locW.Add(d); err != nil {
				return err
			}
			continue
		}
		slot := subtreeSlot(s.rank, s.fanout, len(s.outs), rk)
		if slot < 0 {
			return fmt.Errorf("%w: seed entry for rank %d outside rank %d's subtree", ErrProtocol, rk, s.rank)
		}
		if err := s.slotW[slot].Add(d); err != nil {
			return err
		}
	}
	return nil
}

// finish flushes every stream on the incoming End frame, verifies the
// routed entry count against the end marker's claimed total, and closes
// each outgoing stream with its own per-subtree total and digest.
func (s *seedSplitter) finish(f coll.Frame) error {
	if err := s.locW.Flush(); err != nil {
		return err
	}
	routed := uint64(s.locW.Count())
	for i := range s.slotW {
		if err := s.slotW[i].Flush(); err != nil {
			return err
		}
		routed += uint64(s.slotW[i].Count())
	}
	if routed != f.Total {
		return fmt.Errorf("%w: routed %d seed entries at rank %d, end marker says %d",
			ErrProtocol, routed, s.rank, f.Total)
	}
	for i := range s.outs {
		s.outs[i].Send(encodeFrameOp(opSeedChunk, opSeedEnd, coll.Frame{
			H:   coll.Header{Op: coll.OpSeed, Index: s.slotIx[i] + 1},
			End: true, Total: uint64(s.slotW[i].Count()), Sum: s.slotW[i].Digest(),
		}))
	}
	s.local.Send(coll.Frame{
		H:   coll.Header{Op: coll.OpSeed, Index: s.locIx + 1},
		End: true, Total: uint64(s.locW.Count()), Sum: s.locW.Digest(),
	})
	return nil
}

// seedEngine is one rank's seed-stream state machine: streaming sequence
// validation plus routing (or verbatim fanout) of each admitted frame. The
// root and interior ranks drive it from a pump goroutine — they must keep
// forwarding while their own bootstrap blocks in the accept loop — while
// leaves drive it inline from Seed.Next, so a leaf spawns no seed
// goroutine at all.
type seedEngine struct {
	cfg      Config
	seed     *Seed
	abort    func()
	split    *seedSplitter
	outs     []*seedOutbox
	chk      coll.SeqCheck
	pumped   uint64
	srcBytes *obs.Gauge
}

// step admits one incoming frame, fanning it out locally and to the child
// outboxes. It returns true when the stream is finished — the End frame
// was processed, or a validation failure aborted it.
func (e *seedEngine) step(f coll.Frame) bool {
	if e.cfg.Rank == 0 {
		// Total seed bytes entering the tree at the root: the
		// denominator of the per-link wire-byte invariants.
		e.pumped += uint64(len(f.Body))
		if f.End {
			e.srcBytes.SetMax(e.pumped)
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

	mu  sync.Mutex
	err error
}

// fail records the stream's first error (later ones keep the original).
func (s *Seed) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

func (s *Seed) firstErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
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
		if err := s.firstErr(); err != nil {
			return coll.Frame{}, err
		}
		return coll.Frame{}, fmt.Errorf("%w: seed stream aborted", ErrBootstrap)
	}
	return f, nil
}

// Wait blocks until the pump and every child forwarder have finished and
// returns the stream's first error. After a nil Wait (and a consumed End
// frame from Next) the communicator's links carry no more seed traffic.
func (s *Seed) Wait() error {
	s.wg.Wait()
	return s.firstErr()
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
		pl.seed.fail(err)
		pl.abort()
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
	abort    func()
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

	// The pump owns the incoming stream at ranks that must forward while
	// their own bootstrap still blocks accepting children — the source
	// callback at the root, the parent link at interior ranks. Leaves skip
	// it: with no children to feed and a consumer that starts the moment
	// bootstrap returns, Seed.Next pulls the parent link directly.
	startPump := func(next func() (coll.Frame, error)) {
		seed.wg.Add(1)
		sim.Go(fmt.Sprintf("iccl-seed-pump-%d", cfg.Rank), func() {
			defer seed.wg.Done()
			for {
				f, err := next()
				if err != nil {
					seed.fail(fmt.Errorf("iccl: seed stream at rank %d: %w", cfg.Rank, err))
					abort()
					return
				}
				if eng.step(f) {
					return
				}
			}
		})
	}
	if cfg.Rank == 0 {
		startPump(src)
	}

	onParent := func(conn *simnet.Conn) {
		if len(kids) == 0 {
			// Leaf: no pump either — the SerialFramer owns the parent link
			// while the seed is in flight, charging like the serial reader
			// it replaces and detaching at the End frame's arrival so
			// pre-ShareLinks collective traffic block-reads the same conn
			// as before. Decoding and engine admission run behind the
			// horizon, like that reader's.
			fr := &SerialFramer{Sim: sim, Cost: PerMsgCost}
			lmonp.HandleFrames(conn, func(raw []byte, err error) {
				if err != nil {
					seed.fail(fmt.Errorf("iccl: seed stream at rank %d: %w", cfg.Rank, err))
					fr.Behind(abort)
					return
				}
				// Peek the opcode at arrival: the End frame (or a
				// protocol-violating opcode, which the deferred parse
				// will turn into an error) is the framer's last — detach
				// so later arrivals queue for blocking readers.
				if len(raw) < 4 || binary.BigEndian.Uint32(raw) != opSeedChunk {
					conn.Unhandle()
				}
				fr.Charge(func() {
					f, perr := parseFrameOp(raw, opSeedChunk, opSeedEnd)
					if perr != nil {
						seed.fail(fmt.Errorf("iccl: seed stream at rank %d: %w", cfg.Rank, perr))
						abort()
						return
					}
					eng.step(f)
				})
			})
			return
		}
		startPump(func() (coll.Frame, error) {
			return readFrameOp(p, conn, opSeedChunk, opSeedEnd)
		})
	}
	return &seedPlumbing{seed: seed, abort: abort, onParent: onParent, onChild: startForwarder}
}
