package iccl

import (
	"fmt"

	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// This file implements the tool-data collective plane over the ICCL
// tree: chunk streams (codec in internal/coll) routed hop by hop, with
// interior daemons forwarding broadcast/scatter/gather traffic and
// combining reduce contributions — instead of the master daemon relaying
// every byte over the flat FE link. The master bridges the tree to the
// front end through injected up/down frame hooks (internal/core wires
// them to the FE's LMONP connection; tests wire them to in-memory
// queues), so the routing logic is identical at every tree node.
//
// Plane v2 adds two orthogonal mechanisms:
//
//   - Flow control: each chunk on a tree link consumes one credit of the
//     per-(link, tag) window; the receiver returns a credit as it
//     dequeues the chunk (opCredit), so at most window chunks of one
//     stream are ever queued at a receiver — interior depth is bounded
//     by window × chunk bytes regardless of tree size or subtree skew.
//     End markers and credits ride outside the window. Credits apply to
//     tree links only: the FE↔master LMONP hop has exactly one consumer
//     draining into per-tag queues and no fan-in skew, so a window there
//     would serialize the FE against the slowest subtree for no bound
//     it doesn't already have.
//
//   - Tagged streams: the per-link demux (demux.go) sorts frames by
//     tag, so independent tagged collectives — each driven by
//     its own goroutine — multiplex one session tree concurrently. The
//     legacy untagged API keeps the lockstep SPMD discipline on a
//     per-plane sequence; *Tag variants take explicit tags from
//     [coll.MinUserTag, coll.MaxUserTag), and tree-wide lockstep ops
//     (Barrier/AllGather/AllReduce) sequence above coll.MaxUserTag.
//
// One caveat follows from tag demux: a frame whose tag matches no
// running operation parks silently in its tag queue instead of failing
// the current operation, so a cross-tag SPMD divergence on a tree link
// surfaces as the sender's own stream erroring (or a hang under fault-
// free misuse), not as a mismatch error at the receiver. The root's
// down hook is not demuxed by the plane, so FE-originated tag
// divergence still errors eagerly (checkStream).

// Tree link opcodes of the collective plane.
const (
	opCollChunk = 8 // one collective chunk (header + body)
	opCollEnd   = 9 // stream end (header + uint64 total)
)

// UpFn emits one FE-bound frame from the tree root (gather and reduce
// streams, restamped per link).
type UpFn func(coll.Frame) error

// DownFn yields the tagged stream's next FE-originated frame at the
// tree root (broadcast and scatter streams).
type DownFn func(tag uint32) (coll.Frame, error)

// Plane is one daemon's handle on the session's collective tool-data
// plane. The untagged operations follow the lockstep SPMD discipline
// (all daemons invoke the same collectives in the same order, from one
// goroutine per daemon); the *Tag operations are safe to run
// concurrently from multiple goroutines as long as every daemon runs
// the same operation with the same tag.
type Plane struct {
	c          *Comm
	chunkBytes int
	window     int // per-(link, tag) chunk credits (always positive)
	seq        uint32
	treeSeq    uint32
	up         UpFn
	down       DownFn
}

// NewPlane attaches a collective plane to the communicator. chunkBytes
// bounds one chunk body per link (<= 0 selects coll.DefaultChunkBytes);
// window is the per-(link, tag) outstanding-chunk credit budget (<= 0
// selects coll.DefaultWindow); up and down bridge the root to the front
// end and must be non-nil at the root only.
func (c *Comm) NewPlane(chunkBytes, window int, up UpFn, down DownFn) *Plane {
	if chunkBytes <= 0 {
		chunkBytes = coll.DefaultChunkBytes
	}
	if window <= 0 {
		window = coll.DefaultWindow
	}
	return &Plane{c: c, chunkBytes: chunkBytes, window: window, up: up, down: down}
}

// Every public operation resolves its stream tag through one of the three
// functions below, which is also where the link demux gets installed: at
// operation entry, so frames arriving from then on are charged on
// arrival, not at this daemon's first touch of the link.

// nextTag advances the plane's lockstep FE-collective sequence.
func (pl *Plane) nextTag() uint32 {
	pl.c.demuxLinks()
	pl.seq++
	return pl.seq
}

// nextTreeTag advances the lockstep sequence of the tree-internal
// collectives (Barrier/AllGather/AllReduce without explicit tags),
// in the reserved space above the user tags.
func (pl *Plane) nextTreeTag() uint32 {
	pl.c.demuxLinks()
	pl.treeSeq++
	return coll.MaxUserTag + pl.treeSeq
}

// userTag validates an explicitly allocated stream tag.
func (pl *Plane) userTag(tag uint32) error {
	if tag < coll.MinUserTag || tag >= coll.MaxUserTag {
		return fmt.Errorf("%w: user tag %d outside [%d, %d)", ErrProtocol, tag, coll.MinUserTag, coll.MaxUserTag)
	}
	pl.c.demuxLinks()
	return nil
}

// encodeFrameOp renders f as a tree-link message under the given chunk/end
// opcode pair, in one buffer of exactly its wire size — the single
// coll.Frame↔link-frame mapping, shared by the collective plane and the
// session-seed stream. Only the End frame carries a checksum on the wire:
// the rolling digest of the stream's per-chunk sums. Receivers recompute
// each chunk's sum from the body as it arrives and fold it (coll.SeqCheck),
// so streaming validation covers every chunk at O(chunk) memory without an
// 8-byte per-frame wire tax — on a deep tree those bytes ride every hop of
// every link.
func encodeFrameOp(chunkOp, endOp uint32, f coll.Frame) []byte {
	hn := f.H.EncodedSize()
	if f.End {
		b := lmonp.AppendUint32(newFrame(endOp, 4+hn+16), uint32(hn))
		b = f.H.AppendTo(b)
		b = lmonp.AppendUint64(b, f.Total)
		return lmonp.AppendUint64(b, f.Sum)
	}
	b := lmonp.AppendUint32(newFrame(chunkOp, 4+hn+4+len(f.Body)), uint32(hn))
	b = f.H.AppendTo(b)
	return lmonp.AppendBytes(b, f.Body)
}

// parseFrameOp decodes one raw tree frame (the message encodeFrameOp
// renders, behind its length prefix); the frame's body aliases raw.
func parseFrameOp(raw []byte, chunkOp, endOp uint32) (coll.Frame, error) {
	rd := lmonp.NewReader(raw)
	op, hraw := rd.Uint32(), rd.Bytes()
	if err := rd.Err(); err != nil {
		return coll.Frame{}, err
	}
	if op != chunkOp && op != endOp {
		return coll.Frame{}, fmt.Errorf("%w: got op %d, want %d or %d", ErrProtocol, op, chunkOp, endOp)
	}
	h, err := coll.DecodeHeader(lmonp.NewReader(hraw))
	if err != nil {
		return coll.Frame{}, err
	}
	f := coll.Frame{H: h, End: op == endOp}
	if f.End {
		f.Total, f.Sum = rd.Uint64(), rd.Uint64()
	} else {
		// No on-wire sum for chunks: compute it here so the receiver's
		// rolling digest (checked against the end marker) still covers
		// every chunk it admitted.
		f.Body = rd.Bytes()
		f.Sum = lmonp.Sum64(f.Body)
	}
	if err := rd.Err(); err != nil {
		return coll.Frame{}, err
	}
	return f, nil
}

// sendFrame encodes one collective frame and sends it on a tree link.
func (pl *Plane) sendFrame(conn *simnet.Conn, f coll.Frame) error {
	return pl.sendMsg(conn, f.H.Tag, f.End, encodeFrameOp(opCollChunk, opCollEnd, f))
}

// sendMsg puts one encoded collective frame on a tree link, holding one
// window credit per chunk (End markers ride outside the window and retire
// the stream's gate). msg is sent as is, so one buffer — a frame encoded
// once at the root, or the very message an interior node received — goes
// out on every child link.
func (pl *Plane) sendMsg(conn *simnet.Conn, tag uint32, end bool, msg []byte) error {
	d := pl.c.demuxFor(conn)
	if !end {
		if err := d.gate(tag, pl.window).acquire(); err != nil {
			return err
		}
	}
	return pl.put(d, conn, tag, end, msg)
}

// put is sendMsg past the window: the chunk's credit is in hand.
func (pl *Plane) put(d *linkDemux, conn *simnet.Conn, tag uint32, end bool, msg []byte) error {
	if err := pl.c.send(conn, msg); err != nil {
		return err
	}
	pl.c.collTxFrames.Inc()
	pl.c.collTxBytes.Add(uint64(len(msg) - 4))
	if end {
		d.dropGate(tag)
	}
	return nil
}

// recvTagged dequeues the next frame of one tagged stream from a tree
// link, returning a credit to the sender as the chunk leaves the queue
// (so the sender's window tracks this node's consumption, not its
// arrivals); the stream's end marker retires its queue.
func (pl *Plane) recvTagged(conn *simnet.Conn, tag uint32) (coll.Frame, error) {
	d := pl.c.demuxFor(conn)
	f, ok := d.tags.Q(tag).Recv()
	if !ok {
		return coll.Frame{}, d.tags.Err()
	}
	d.dequeued(f)
	if !f.End {
		if err := pl.c.sendCredit(conn, tag, 1); err != nil {
			return coll.Frame{}, err
		}
	}
	return f, nil
}

// emitUp ships one FE-bound frame: through the up hook at the root,
// up the parent link elsewhere.
func (pl *Plane) emitUp(f coll.Frame) error {
	if pl.c.parent == nil {
		if pl.up == nil {
			return fmt.Errorf("%w: root plane has no up hook", ErrProtocol)
		}
		return pl.up(f)
	}
	return pl.sendFrame(pl.c.parent, f)
}

// fromFE yields the tagged stream's next FE-originated frame at the root.
func (pl *Plane) fromFE(tag uint32) (coll.Frame, error) {
	if pl.down == nil {
		return coll.Frame{}, fmt.Errorf("%w: root plane has no down hook", ErrProtocol)
	}
	return pl.down(tag)
}

// recvDown yields a scatter stream's next frame: from the down hook at the
// root, from the parent link elsewhere.
func (pl *Plane) recvDown(tag uint32) (coll.Frame, error) {
	if pl.c.parent == nil {
		return pl.fromFE(tag)
	}
	return pl.recvTagged(pl.c.parent, tag)
}

// checkStream validates that a frame belongs to the current operation.
func (pl *Plane) checkStream(f coll.Frame, op coll.Op, tag uint32) error {
	if f.H.Op != op || f.H.Tag != tag {
		return fmt.Errorf("%w: rank %d: %v frame tag %d during %v tag %d (collective order diverged)",
			ErrProtocol, pl.c.rank, f.H.Op, f.H.Tag, op, tag)
	}
	return nil
}

// Broadcast receives one FE-originated broadcast, forwarding every chunk
// to the children as it arrives, and returns the reassembled payload.
func (pl *Plane) Broadcast() ([]byte, error) {
	return pl.broadcast(pl.nextTag())
}

// BroadcastTag is Broadcast on an explicitly tagged concurrent stream.
func (pl *Plane) BroadcastTag(tag uint32) ([]byte, error) {
	if err := pl.userTag(tag); err != nil {
		return nil, err
	}
	return pl.broadcast(tag)
}

func (pl *Plane) broadcast(tag uint32) ([]byte, error) {
	asm := new(coll.RawAssembler)
	end, err := pl.relayDown(coll.OpBroadcast, tag, asm)
	if err != nil {
		return nil, err
	}
	return asm.Finish(end.H, end.Total)
}

// relayDown is the down-phase of Broadcast, AllGather and AllReduce: the
// tagged stream from above is checked, handed chunk by chunk to sink
// (which validates the sequence and keeps or copies what it needs) and
// forwarded to the children — the very message each frame arrived in, or
// at the root one encoding for all of them. It returns the end marker for
// the caller's assembler to finish on.
//
// The stream is carried by a downRelay, on the scheduler, while the
// daemon's goroutine waits here: it is woken once, when the stream has
// ended or failed. Only the root has a goroutine's work to do — its frames
// come from the down hook, which blocks, so it pulls one, gives it to the
// relay, and waits for it to clear the children before pulling the next.
func (pl *Plane) relayDown(op coll.Op, tag uint32, sink chunkSink) (coll.Frame, error) {
	r := &downRelay{pl: pl, sink: sink, op: op, tag: tag}
	r.w.Init(pl.c.p.Sim())
	if pl.c.parent != nil {
		r.up = pl.c.demuxFor(pl.c.parent)
		r.up.register(r)
		r.pump() // what arrived before this daemon entered the operation
	}
	for !r.done {
		if r.up == nil && r.held == nil {
			f, err := pl.fromFE(tag)
			if err != nil {
				return f, err
			}
			r.take(f)
		} else if !r.w.Wait() {
			return coll.Frame{}, fmt.Errorf("%w: rank %d: simulation ended during %v tag %d", ErrSevered, pl.c.rank, op, tag)
		}
	}
	return coll.Frame{H: r.endH, End: true, Total: r.total}, r.err
}

// chunkSink is what a down-phase stream's chunks are assembled in
// (coll.RawAssembler, coll.RankAssembler).
type chunkSink interface {
	Add(coll.Header, []byte) error
}

// downRelay is one down-phase stream passing through one rank — what a
// goroutine looping over recvTagged, add and sendMsg would be, as state the
// scheduler's callbacks advance. The parent link's demux hands it each
// frame at delivery (take); frames that arrived before the operation was
// entered, or while a frame was stalled, wait in the tag queue and pump
// drains them. Forwarding takes one window credit per child per chunk;
// where a child's window is empty the relay keeps the frame in hand
// (held), leaves itself as that gate's waiter and returns — it takes
// nothing more from the parent's side until the credit calls pump back, so
// back-pressure and the depth ≤ window invariant are those of a goroutine
// blocked in acquire. End, a protocol error or a severed link finish it and
// wake the daemon.
//
// Its callers never overlap: scheduler callbacks, and the daemon's own
// goroutine while it is runnable (operation entry; every step at the root).
// It is the whole of what a daemon parked in a down phase holds — wait point
// by value, stall record allocated only by a rank that stalls.
type downRelay struct {
	pl   *Plane
	sink chunkSink
	up   *linkDemux // the parent link's demux, nil at the root
	next *downRelay // up.relays
	held *heldFrame // the frame a child's empty window stalled, nil when none
	tag  uint32
	op   coll.Op
	done bool

	endH  coll.Header // the end marker's header and total, once done
	total uint64
	err   error
	w     vtime.Waiter // the daemon's goroutine
}

// heldFrame is a frame part-way through the children.
type heldFrame struct {
	msg  []byte
	end  bool
	slot int // the first child that has not been sent it
}

// take runs one frame of the stream through the rank, from the point it
// leaves the parent's side: the parent's credit goes back, the frame is
// checked and assembled, then forwarded.
func (r *downRelay) take(f coll.Frame) {
	pl := r.pl
	if r.up != nil && !f.End {
		if err := pl.c.sendCredit(pl.c.parent, r.tag, 1); err != nil {
			// f outlived its link in the tag queue: the stream ends here of
			// the link's failure, not of the send that found it out.
			if cause := r.up.tags.Err(); cause != nil {
				err = cause
			}
			r.finish(err)
			return
		}
	}
	if err := pl.checkStream(f, r.op, r.tag); err != nil {
		r.finish(err)
		return
	}
	if f.End {
		r.endH, r.total = f.H, f.Total
	} else if err := r.sink.Add(f.H, f.Body); err != nil {
		r.finish(err)
		return
	}
	msg := f.Wire
	if msg == nil && len(pl.c.children) > 0 {
		msg = encodeFrameOp(opCollChunk, opCollEnd, f)
	}
	r.forward(heldFrame{msg: msg, end: f.End})
}

// forward sends h to the children from h.slot on, in slot order. It stops
// at a child whose window is empty, keeping h for the gate's callback.
func (r *downRelay) forward(h heldFrame) {
	pl := r.pl
	for ; h.slot < len(pl.c.children); h.slot++ {
		conn := pl.c.children[h.slot]
		d := pl.c.demuxFor(conn)
		if !h.end {
			g := d.gate(r.tag, pl.window)
			ok, err := g.tryAcquire()
			if err != nil {
				r.finish(err)
				return
			}
			if !ok {
				if r.held == nil {
					r.held = new(heldFrame)
				}
				*r.held, g.waiter = h, r
				return
			}
		}
		if err := pl.put(d, conn, r.tag, h.end, h.msg); err != nil {
			r.finish(err)
			return
		}
	}
	r.held = nil
	if h.end {
		r.finish(nil)
	}
}

// pump advances the relay as far as it goes without waiting: the frame in
// hand first, then what the parent link's tag queue holds of the stream —
// until a child's window is empty, the queue is (deliver hands over what
// arrives next) or the stream is over. A severed parent link ends the
// stream once everything that arrived before has been relayed, as a
// blocking reader would see it.
func (r *downRelay) pump() {
	if r.held != nil {
		r.forward(*r.held)
		if r.up == nil && r.held == nil {
			r.w.Wake() // the root's goroutine pulls the next frame
		}
	}
	if r.up == nil {
		return
	}
	q := r.up.tags.Lookup(r.tag) // nil: nothing of the stream was ever queued
	for r.held == nil && !r.done {
		var f coll.Frame
		ok := false
		if q != nil {
			f, ok = q.TryRecv()
		}
		if !ok {
			if err := r.up.tags.Err(); err != nil {
				r.finish(err)
			}
			return
		}
		r.up.dequeued(f)
		r.take(f)
	}
}

// finish ends the stream at this rank, leaving nothing of it on the parent
// link, and wakes the daemon.
func (r *downRelay) finish(err error) {
	r.done, r.err, r.held = true, err, nil
	if r.up != nil {
		r.up.unregister(r)
		r.up.retire(r.tag)
	}
	r.w.Wake()
}

// toConn is the frame sink writing to one tree link (Packer.Emit, sendRaw).
func (pl *Plane) toConn(conn *simnet.Conn) func(coll.Frame) error {
	return func(f coll.Frame) error { return pl.sendFrame(conn, f) }
}

// sendRaw streams data through emit as a raw chunk stream plus end marker.
// The frames' bodies alias data; each is copied once, into the message its
// sink encodes.
func (pl *Plane) sendRaw(op coll.Op, tag uint32, filter string, data []byte, emit func(coll.Frame) error) error {
	for _, f := range coll.RawFrames(op, tag, filter, data, pl.chunkBytes) {
		if err := emit(f); err != nil {
			return err
		}
	}
	return nil
}

// Scatter receives one FE-originated scatter and returns this rank's
// part. Interior nodes re-bucket the incoming rank-tagged entries by
// child subtree and stream them onward in bounded-size chunks
// (coll.Packer — the shared coalescing implementation).
func (pl *Plane) Scatter() ([]byte, error) {
	return pl.scatter(pl.nextTag())
}

// ScatterTag is Scatter on an explicitly tagged concurrent stream.
func (pl *Plane) ScatterTag(tag uint32) ([]byte, error) {
	if err := pl.userTag(tag); err != nil {
		return nil, err
	}
	return pl.scatter(tag)
}

func (pl *Plane) scatter(tag uint32) ([]byte, error) {
	packers := make([]*coll.Packer, len(pl.c.children))
	for slot, conn := range pl.c.children {
		packers[slot] = &coll.Packer{Op: coll.OpScatter, Tag: tag, ChunkBytes: pl.chunkBytes, Emit: pl.toConn(conn)}
	}
	var mine []byte
	have := false
	var in coll.SeqCheck // validates the incoming chunk index sequence
	for {
		f, err := pl.recvDown(tag)
		if err != nil {
			return nil, err
		}
		if err := pl.checkStream(f, coll.OpScatter, tag); err != nil {
			return nil, err
		}
		if err := in.Admit(f.H); err != nil {
			return nil, err
		}
		if f.End {
			for _, sp := range packers {
				if err := sp.End(); err != nil {
					return nil, err
				}
			}
			break
		}
		entries, err := coll.DecodeEntries(f.Body)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.Rank == pl.c.rank {
				if have {
					return nil, fmt.Errorf("%w: duplicate scatter part for rank %d", ErrProtocol, e.Rank)
				}
				mine = append([]byte(nil), e.Blob...)
				have = true
				continue
			}
			slot := subtreeSlot(pl.c.rank, pl.c.cfg.Fanout, len(packers), e.Rank)
			if slot < 0 {
				return nil, fmt.Errorf("%w: scatter part for rank %d outside rank %d's subtree",
					ErrProtocol, e.Rank, pl.c.rank)
			}
			if err := packers[slot].Add(e); err != nil {
				return nil, err
			}
		}
	}
	if !have {
		return nil, fmt.Errorf("%w: no scatter part for rank %d", ErrProtocol, pl.c.rank)
	}
	return mine, nil
}

// Gather contributes mine to an FE-bound gather. Interior nodes stream
// their own entry first, then drain each child subtree's chunks as they
// arrive, re-coalescing the entries into bounded-size frames — so the
// number of messages on any link is bounded by subtree-bytes/chunk, not
// by the subtree's daemon count, and no link ever carries a monolithic
// K-entry payload.
func (pl *Plane) Gather(mine []byte) error {
	return pl.gatherUp(coll.OpGather, pl.nextTag(), mine)
}

// GatherTag is Gather on an explicitly tagged concurrent stream.
func (pl *Plane) GatherTag(tag uint32, mine []byte) error {
	if err := pl.userTag(tag); err != nil {
		return err
	}
	return pl.gatherUp(coll.OpGather, tag, mine)
}

// gatherUp streams this subtree's entries upward — own entry first, then
// each child subtree's, re-coalesced into bounded chunks: the whole of
// Gather and the non-root up-phase of AllGather.
func (pl *Plane) gatherUp(op coll.Op, tag uint32, mine []byte) error {
	pk := &coll.Packer{Op: op, Tag: tag, ChunkBytes: pl.chunkBytes, Emit: pl.emitUp}
	if err := pk.Add(coll.Entry{Rank: pl.c.rank, Blob: mine}); err != nil {
		return err
	}
	if err := pl.gatherChildren(op, tag, pk.Add); err != nil {
		return err
	}
	return pk.End()
}

// gatherChildren drains each child subtree's entry stream in slot
// order, validating per-link sequencing and the entry sub-count, and
// feeds every entry to sink — the shared up-phase of Gather and
// AllGather.
func (pl *Plane) gatherChildren(op coll.Op, tag uint32, sink func(coll.Entry) error) error {
	for slot, conn := range pl.c.children {
		var in coll.SeqCheck
		var sub uint64
		for {
			f, err := pl.recvTagged(conn, tag)
			if err != nil {
				return err
			}
			if err := pl.checkStream(f, op, tag); err != nil {
				return err
			}
			if err := in.Admit(f.H); err != nil {
				return err
			}
			if f.End {
				if sub != f.Total {
					return fmt.Errorf("%w: child %d forwarded %d %v entries, end marker says %d",
						ErrProtocol, pl.c.childRk[slot], sub, op, f.Total)
				}
				break
			}
			entries, err := coll.DecodeEntries(f.Body)
			if err != nil {
				return err
			}
			sub += uint64(len(entries))
			for _, e := range entries {
				if err := sink(e); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Reduce contributes mine to an FE-bound reduction: every node folds its
// children's subtree results into its own contribution with the named
// filter ("concat", "sum", "topk:N", or any coll.RegisterFilter
// registration — all daemons must name the same one) and ships one
// combined stream upward, so per-link bytes are bounded by the combined
// result, not the subtree size.
func (pl *Plane) Reduce(mine []byte, filter string) error {
	return pl.reduce(pl.nextTag(), mine, filter)
}

// ReduceTag is Reduce on an explicitly tagged concurrent stream.
func (pl *Plane) ReduceTag(tag uint32, mine []byte, filter string) error {
	if err := pl.userTag(tag); err != nil {
		return err
	}
	return pl.reduce(tag, mine, filter)
}

func (pl *Plane) reduce(tag uint32, mine []byte, filter string) error {
	acc, err := pl.combineChildren(coll.OpReduce, tag, mine, filter)
	if err != nil {
		return err
	}
	return pl.sendRaw(coll.OpReduce, tag, filter, acc, pl.emitUp)
}

// combineChildren folds every child subtree's combined stream into this
// node's own contribution with the named filter — the shared up-phase
// of Reduce and AllReduce.
func (pl *Plane) combineChildren(op coll.Op, tag uint32, mine []byte, filter string) ([]byte, error) {
	fn, err := coll.LookupFilter(filter)
	if err != nil {
		return nil, err
	}
	acc, err := fn(nil, mine)
	if err != nil {
		return nil, err
	}
	for slot, conn := range pl.c.children {
		var asm coll.RawAssembler
		for {
			f, err := pl.recvTagged(conn, tag)
			if err != nil {
				return nil, err
			}
			if err := pl.checkStream(f, op, tag); err != nil {
				return nil, err
			}
			if f.H.Filter != filter {
				return nil, fmt.Errorf("%w: child %d reduces with filter %q, this node with %q",
					ErrProtocol, pl.c.childRk[slot], f.H.Filter, filter)
			}
			if f.End {
				blob, err := asm.Finish(f.H, f.Total)
				if err != nil {
					return nil, err
				}
				pl.c.p.Compute(PerMsgCost) // combine charge
				if acc, err = fn(acc, blob); err != nil {
					return nil, err
				}
				break
			}
			if err := asm.Add(f.H, f.Body); err != nil {
				return nil, err
			}
		}
	}
	return acc, nil
}

// Barrier blocks until every daemon of the tree has entered it: an
// up-phase of end markers gathers at the root, then a release wave
// flows back down (the DAOS crt_barrier two-phase shape). The FE is not
// involved — the root turns the barrier around. Barrier participates in
// the tree-lockstep sequence shared with AllGather/AllReduce.
func (pl *Plane) Barrier() error {
	return pl.barrier(pl.nextTreeTag())
}

// BarrierTag is Barrier on an explicitly tagged concurrent stream.
func (pl *Plane) BarrierTag(tag uint32) error {
	if err := pl.userTag(tag); err != nil {
		return err
	}
	return pl.barrier(tag)
}

func (pl *Plane) barrier(tag uint32) error {
	end := coll.Frame{H: coll.Header{Op: coll.OpBarrier, Tag: tag}, End: true, Sum: lmonp.SumInit}
	for _, conn := range pl.c.children {
		f, err := pl.recvTagged(conn, tag)
		if err != nil {
			return err
		}
		if err := pl.checkBarrierFrame(f, tag); err != nil {
			return err
		}
	}
	if pl.c.parent != nil {
		if err := pl.sendFrame(pl.c.parent, end); err != nil {
			return err
		}
		f, err := pl.recvTagged(pl.c.parent, tag)
		if err != nil {
			return err
		}
		if err := pl.checkBarrierFrame(f, tag); err != nil {
			return err
		}
	}
	for _, conn := range pl.c.children {
		if err := pl.sendFrame(conn, end); err != nil {
			return err
		}
	}
	return nil
}

func (pl *Plane) checkBarrierFrame(f coll.Frame, tag uint32) error {
	if err := pl.checkStream(f, coll.OpBarrier, tag); err != nil {
		return err
	}
	if !f.End {
		return fmt.Errorf("%w: rank %d: barrier stream carries a chunk", ErrProtocol, pl.c.rank)
	}
	return nil
}

// AllGather contributes mine and returns every daemon's contribution
// indexed by rank: a gather up-phase into the root, then the assembled
// rank table redistributed down the tree in bounded chunks.
func (pl *Plane) AllGather(mine []byte) ([][]byte, error) {
	return pl.allGather(pl.nextTreeTag(), mine)
}

// AllGatherTag is AllGather on an explicitly tagged concurrent stream.
func (pl *Plane) AllGatherTag(tag uint32, mine []byte) ([][]byte, error) {
	if err := pl.userTag(tag); err != nil {
		return nil, err
	}
	return pl.allGather(tag, mine)
}

func (pl *Plane) allGather(tag uint32, mine []byte) ([][]byte, error) {
	if pl.c.parent == nil {
		// Root: assemble the full rank table from the subtree streams...
		out := make([][]byte, pl.c.size)
		out[pl.c.rank] = append([]byte{}, mine...) // non-nil marks a slot filled
		have := 1
		err := pl.gatherChildren(coll.OpAllGather, tag, func(e coll.Entry) error {
			if e.Rank >= len(out) || out[e.Rank] != nil {
				return fmt.Errorf("%w: rank %d contributed twice to (or is outside) a %d-daemon allgather",
					ErrProtocol, e.Rank, len(out))
			}
			out[e.Rank] = append([]byte{}, e.Blob...)
			have++
			return nil
		})
		if err != nil {
			return nil, err
		}
		if have != len(out) {
			return nil, fmt.Errorf("%w: allgather assembled %d of %d contributions", ErrProtocol, have, len(out))
		}
		// ...then redistribute it down every child link in bounded chunks.
		for _, conn := range pl.c.children {
			pk := &coll.Packer{Op: coll.OpAllGather, Tag: tag, ChunkBytes: pl.chunkBytes, Emit: pl.toConn(conn)}
			for rk, blob := range out {
				if err := pk.Add(coll.Entry{Rank: rk, Blob: blob}); err != nil {
					return nil, err
				}
			}
			if err := pk.End(); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	// Non-root up-phase: the Gather shape under the allgather op...
	if err := pl.gatherUp(coll.OpAllGather, tag, mine); err != nil {
		return nil, err
	}
	// ...then the table stream comes back down (the Broadcast shape).
	asm := new(coll.RankAssembler)
	end, err := pl.relayDown(coll.OpAllGather, tag, asm)
	if err != nil {
		return nil, err
	}
	return asm.Finish(end.H, end.Total, pl.c.size)
}

// AllReduce contributes mine to a reduction with the named filter and
// returns the combined result on every daemon: the Reduce up-phase
// folds into the root, whose final accumulator is redistributed down
// the tree (down-phase reuse of the up-phase combine).
func (pl *Plane) AllReduce(mine []byte, filter string) ([]byte, error) {
	return pl.allReduce(pl.nextTreeTag(), mine, filter)
}

// AllReduceTag is AllReduce on an explicitly tagged concurrent stream.
func (pl *Plane) AllReduceTag(tag uint32, mine []byte, filter string) ([]byte, error) {
	if err := pl.userTag(tag); err != nil {
		return nil, err
	}
	return pl.allReduce(tag, mine, filter)
}

func (pl *Plane) allReduce(tag uint32, mine []byte, filter string) ([]byte, error) {
	acc, err := pl.combineChildren(coll.OpAllReduce, tag, mine, filter)
	if err != nil {
		return nil, err
	}
	if pl.c.parent == nil {
		for _, conn := range pl.c.children {
			if err := pl.sendRaw(coll.OpAllReduce, tag, filter, acc, pl.toConn(conn)); err != nil {
				return nil, err
			}
		}
		return acc, nil
	}
	if err := pl.sendRaw(coll.OpAllReduce, tag, filter, acc, pl.emitUp); err != nil {
		return nil, err
	}
	asm := new(coll.RawAssembler)
	end, err := pl.relayDown(coll.OpAllReduce, tag, asm)
	if err != nil {
		return nil, err
	}
	return asm.Finish(end.H, end.Total)
}
