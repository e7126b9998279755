package iccl

import (
	"encoding/binary"
	"fmt"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
	"launchmon/internal/vtime"
)

// This file implements the tool-data collective plane over the ICCL tree:
// chunk streams (codec in internal/coll) routed hop by hop, interior daemons
// forwarding broadcast and gather traffic and combining reduce
// contributions. The front end is the root's parent on the plane: FE-bound
// frames leave the root through an up hook, FE-originated ones are pushed
// in (PushFE), so every rank runs the same operations, and the front end's
// own plane (NewFrontEnd) is fed the same way and runs their down phase.
//
// Each message of a stream on a tree link spends one credit of the
// per-(link, tag) window, returned as the receiver takes it (opCredit), so
// interior depth is bounded by window × chunk bytes. A credit goes back only
// when its sender can spend it: not for the last message, which carries the
// end marker (coll.Frame.Last, or a chunkless stream's bare End), and not
// for a Tail, one of the last window messages of a stream whose origin knew
// its length (coll.Merged). The FE hop has no window: one sorted reader at
// either end and no fan-in skew.
//
// Each link's demux (demux.go) sorts frames by tag, so tagged collectives,
// each from its own goroutine, share one tree; *Tag variants take tags from
// [coll.MinUserTag, coll.MaxUserTag), the lockstep operations sequence below
// it and AllGather/AllReduce above it. A frame whose tag no running
// operation has waits in its link's backlog, so a cross-tag divergence on a
// tree link surfaces as the sender's stream erroring (or a hang), not at the
// receiver. On the FE hop all lockstep tags share one record
// (coll.FEStream), so a lockstep divergence there errors eagerly
// (checkStream).

// Tree link opcodes of the collective plane.
const (
	opCollChunk = 8 // one collective chunk (header + body)
	opCollEnd   = 9 // stream end (header + uint64 total)
)

// UpFn emits one FE-bound frame from the tree root (gather and reduce
// streams, restamped per link).
type UpFn func(coll.Frame) error

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
	fe         *linkDemux // at the root the front end's link, at the front end the root's; fed by PushFE
}

// NewPlane attaches a collective plane to the communicator. chunkBytes
// bounds one chunk body per link (<= 0: coll.DefaultChunkBytes), window is
// the per-(link, tag) outstanding-chunk credit budget (<= 0:
// coll.DefaultWindow), up bridges the root to the front end (nil at every
// other rank); the last argument is unused.
func (c *Comm) NewPlane(chunkBytes, window int, up UpFn, _ any) *Plane {
	if chunkBytes <= 0 {
		chunkBytes = coll.DefaultChunkBytes
	}
	pl := &Plane{c: c, chunkBytes: chunkBytes, window: coll.Window(window), up: up}
	if c.parent == nil {
		pl.fe = c.newLinkDemux(nil)
	}
	return pl
}

// NewFrontEnd makes the front end's plane above a fabric's root, called name
// in its errors: its one link is fed by PushFE, and Receive runs on it.
func NewFrontEnd(p *cluster.Proc, name string) *Plane {
	return (&Comm{p: p, name: name}).NewPlane(0, 0, nil, nil)
}

// PushFE hands the plane one frame off the FE↔master connection, from a
// scheduler callback: the operation of its stream takes it where it
// arrives, as on a tree link; a stream nobody has entered yet waits whole.
func (pl *Plane) PushFE(f coll.Frame) { pl.fe.arrive(f) }

// FailFE severs that link, from a scheduler callback: every operation
// draining it, running or later, ends with ErrSevered.
func (pl *Plane) FailFE(err error) { pl.fe.fail(err) }

// Receive is the front end's side of an FE-bound Gather (a table of
// daemons entries) or Reduce (the combined result) on tag: the down phase
// every rank runs, with nothing below to relay to.
func (pl *Plane) Receive(op coll.Op, tag uint32, daemons int) ([][]byte, []byte, error) {
	if op != coll.OpGather {
		blob, err := pl.broadcast(op, tag, nil)
		return nil, blob, err
	}
	g := &gatherOp{n: daemons}
	g.start(pl, g, op, tag, nil)
	g.drain(above)
	err := g.wait()
	return g.table, nil, err
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
// collectives (AllGather/AllReduce without explicit tags),
// in the reserved space above the user tags.
func (pl *Plane) nextTreeTag() uint32 {
	pl.c.demuxLinks()
	pl.treeSeq++
	return coll.MaxUserTag + pl.treeSeq
}

// userTag validates an explicitly allocated stream tag.
func (pl *Plane) userTag(tag uint32) error {
	if tag < coll.MinUserTag || tag >= coll.MaxUserTag {
		return fmt.Errorf("%w: user tag %d outside [%d, %d)", errProtocol, tag, coll.MinUserTag, coll.MaxUserTag)
	}
	pl.c.demuxLinks()
	return nil
}

// encodeFrameOp renders f as a tree-link message under the given chunk/end
// opcode pair, in one buffer of exactly its wire size — the single
// coll.Frame↔link-frame mapping, shared by the collective plane and the
// session-seed stream. Only the End carries a checksum on the wire: the
// rolling digest of the stream's per-chunk sums. A chunk's Sum is not
// sent — on a deep tree 8 bytes a frame would ride every hop of every
// link — so a receiver that checks the stream computes each chunk's sum
// from the body and folds it (the seed's parent link, for coll.SeqCheck).
// A Last chunk goes under endOp, the End's total and digest after the body.
func encodeFrameOp(chunkOp, endOp uint32, f coll.Frame) []byte {
	hn := f.H.EncodedSize()
	if f.End {
		b := lmonp.AppendUint32(newFrame(endOp, 4+hn+16), uint32(hn))
		b = f.H.AppendTo(b)
		b = lmonp.AppendUint64(b, f.Total)
		return lmonp.AppendUint64(b, f.Sum)
	}
	op, n := chunkOp, 4+hn+4+len(f.Body)
	if f.Last {
		op, n = endOp, n+16
	}
	b := lmonp.AppendUint32(newFrame(op, n), uint32(hn))
	b = lmonp.AppendBytes(f.H.AppendTo(b), f.Body)
	if f.Last {
		b = lmonp.AppendUint64(lmonp.AppendUint64(b, f.Total), f.Digest)
	}
	return b
}

// seedChunkHead is what encodeFrameOp renders before a seed chunk's body:
// length prefix, opcode, header length, the header and the body's length.
var seedChunkHead = 4 + 4 + 4 + coll.Header{Op: coll.OpSeed}.EncodedSize() + 4

// putSeedChunkHead fills in msg's first seedChunkHead bytes so that msg,
// a chunk rendered behind them (proctab.NewChunkWriterBehind), is the link
// message encodeFrameOp renders for that chunk under h.
func putSeedChunkHead(msg []byte, h coll.Header) []byte {
	b := lmonp.AppendUint32(msg[:0], uint32(len(msg)-4))
	b = lmonp.AppendUint32(lmonp.AppendUint32(b, opSeedChunk), uint32(h.EncodedSize()))
	lmonp.AppendUint32(h.AppendTo(b), uint32(len(msg)-seedChunkHead))
	return msg
}

// parseFrameOp decodes one raw tree frame (the message encodeFrameOp
// renders, behind its length prefix); the frame's body aliases raw. An End
// frame has the wire digest as its Sum; a chunk has none (Sum 0), since
// no collective operation checks one — a caller that does computes it. An
// end message longer than an End is a Last chunk, on the plane's links.
func parseFrameOp(raw []byte, chunkOp, endOp uint32) (coll.Frame, error) {
	rd := lmonp.NewReader(raw)
	op, hraw := rd.Uint32(), rd.Bytes()
	if err := rd.Err(); err != nil {
		return coll.Frame{}, err
	}
	if op != chunkOp && op != endOp {
		return coll.Frame{}, fmt.Errorf("%w: got op %d, want %d or %d", errProtocol, op, chunkOp, endOp)
	}
	h, err := coll.DecodeHeader(lmonp.NewReader(hraw))
	if err != nil {
		return coll.Frame{}, err
	}
	f := coll.Frame{H: h, End: op == endOp}
	f.Last = f.End && chunkOp == opCollChunk && rd.Remaining() > 16
	if f.End && !f.Last {
		f.Total, f.Sum = rd.Uint64(), rd.Uint64()
	} else {
		f.Body = rd.Bytes()
	}
	if f.Last {
		f.End, f.Total, f.Digest = false, rd.Uint64(), rd.Uint64()
	}
	if err := rd.Err(); err != nil {
		return coll.Frame{}, err
	}
	if n := rd.Remaining(); n != 0 {
		return coll.Frame{}, fmt.Errorf("%v frame followed by %d bytes", f.H.Op, n)
	}
	return f, nil
}

// checkStream validates that a frame belongs to the current operation.
func (pl *Plane) checkStream(f coll.Frame, op coll.Op, tag uint32) error {
	if f.H.Op != op || f.H.Tag != tag {
		return fmt.Errorf("%w: %s: %v frame tag %d during %v tag %d (collective order diverged)",
			errProtocol, pl.c.who(), f.H.Op, f.H.Tag, op, tag)
	}
	return nil
}

// Links are named by child slot, or by one of these.
const (
	above = -1 // the parent link; at the root, the front end's
	none  = -2 // no link: the operation is over once its sends are out
)

// planeOp is one Plane operation at one rank: what a goroutine looping
// over its links would be, as state the scheduler's callbacks advance. It
// drains one link at a time (a down phase its parent, an up phase its
// children in slot order), registered on that link's record for its tag,
// and the link demux calls it inline wherever a frame or a credit for it
// arrives (demux.go). Sends go out while the windows have credit; behind an
// empty one they wait in out, in order, and the operation takes nothing
// more until out has drained — back-pressure and depth ≤ window as a
// goroutine blocked in a send had them. Its callers never overlap:
// scheduler callbacks, and the daemon's goroutine while it is runnable.
type planeOp struct {
	pl     *Plane
	steps  opSteps          // what the operation does with each frame
	src    *tagLink         // the record of the link being drained, nil when none is
	out    []outMsg         // sends an empty window holds back, oldest first
	credit *[creditLen]byte // the stream's credit message, built at its first credit
	err    error
	slot   int // the link being drained: a child slot, above or none
	tag    uint32
	op     coll.Op
	busy   bool // a combine charge is running
	done   bool
	w      vtime.Waiter // the daemon's goroutine
}

// opSteps is one kind of operation: what it does with each checked frame of
// the link it drains, moving on (drain) as that link's stream ends.
type opSteps interface {
	frame(f coll.Frame) error
}

// outMsg is one encoded frame bound for the links slot..to-1 in slot order
// — the children [0, n), or the parent alone [above, above+1).
type outMsg struct {
	msg      []byte
	slot, to int
}

// start binds o to the plane as an operation of the given kind; err is the
// tag's, which ends o before it begins.
func (o *planeOp) start(pl *Plane, steps opSteps, op coll.Op, tag uint32, err error) bool {
	o.pl, o.steps, o.op, o.tag, o.slot, o.err, o.done = pl, steps, op, tag, none, err, err != nil
	o.w.Init(pl.c.p.Sim())
	return !o.done
}

// wait carries o to its end from the daemon's goroutine, which has started
// it: what arrived before entry is handled here, then the goroutine waits
// once while the demux carries the operation on.
func (o *planeOp) wait() error {
	o.pump()
	for !o.done {
		if !o.w.Wait() {
			return fmt.Errorf("%w: %s: simulation ended during %v tag %d", ErrSevered, o.pl.c.who(), o.op, o.tag)
		}
	}
	return o.err
}

// link is the demux of the link a name stands for: a child's, the parent's
// or at the root the front end's; nil for none.
func (o *planeOp) link(slot int) *linkDemux {
	switch {
	case slot == none:
		return nil
	case slot == above && o.pl.c.parent == nil:
		return o.pl.fe
	}
	return o.pl.c.demux(slot)
}

// drain makes slot the link o takes frames from next, registering o on the
// link's record for its tag (unless a send of the same step ended o); pump
// takes what the record already holds.
func (o *planeOp) drain(slot int) {
	o.slot, o.src = slot, nil
	if d := o.link(slot); d != nil && !o.done {
		o.src = d.consume(o)
	}
}

// pump advances o as far as it goes without waiting: what empty windows
// held back, then what the drained link's record holds — until a window
// or the record is empty, a combine charge runs, or o is over. A severed
// link ends o once what arrived before it died is taken.
func (o *planeOp) pump() {
	for o.flush() && !o.busy {
		s := o.src
		if s == nil {
			if o.slot == none {
				o.finish(nil)
			}
			return
		}
		f, ok := s.d.pop(s)
		if !ok {
			if err := s.d.failure(); err != nil {
				o.sever(s.d, err)
			}
			return
		}
		o.take(f)
	}
}

// take runs one frame through the operation from the point it leaves the
// drained link's side: a chunk's credit goes back to its sender unless it is
// a Tail (none to the front end), an end marker (or a Last chunk) releases
// the record, then the frame is checked and stepped — a Last chunk's end
// marker after it.
func (o *planeOp) take(f coll.Frame) {
	if s := o.src; s != nil && (f.End || f.Last) {
		o.src = nil
		s.d.release(s, o)
	} else if s != nil && s.d.conn != nil && !f.H.Tail {
		if err := o.sendCredit(s.d.conn); err != nil {
			o.sever(s.d, err)
			return
		}
	}
	err := o.pl.checkStream(f, o.op, o.tag)
	if err == nil {
		err = o.steps.frame(f)
	}
	if err == nil && f.Last && !o.done {
		err = o.steps.frame(f.EndMarker())
	}
	if err != nil {
		o.finish(err)
	}
}

// send puts m on its links, behind whatever an empty window already holds
// back.
func (o *planeOp) send(m outMsg) {
	if !o.done && (len(o.out) > 0 || !o.put(&m)) && !o.done { // put may end o
		o.out = append(o.out, m)
	}
}

// flush sends what empty windows held back, oldest first, and reports
// whether o may go on.
func (o *planeOp) flush() bool {
	for len(o.out) > 0 {
		if !o.put(&o.out[0]) {
			return false
		}
		o.out = o.out[:copy(o.out, o.out[1:])]
	}
	return !o.done
}

// put sends m on its links from m.slot on; false when a window is empty
// (m.slot is where m resumes) or o failed.
func (o *planeOp) put(m *outMsg) bool {
	for ; m.slot < m.to; m.slot++ {
		if !o.sendOn(m.slot, m.msg) {
			return false
		}
	}
	return true
}

// sendOn puts one encoded frame on a link as is — one buffer may go out on
// every child link — spending a window credit; an end message closes the
// stream's send side. It is false when the window is empty, o then waiting
// on the link's record for the next credit, or when the link has failed,
// which ends o.
func (o *planeOp) sendOn(slot int, msg []byte) bool {
	d := o.link(slot)
	if err := d.failure(); err != nil {
		o.sever(d, err)
		return false
	}
	end := binary.BigEndian.Uint32(msg[4:]) == opCollEnd
	if !d.takeCredit(o) {
		return false
	}
	if err := o.pl.c.send(d.conn, msg); err != nil {
		o.sever(d, err)
		return false
	}
	if m := o.pl.c.obs; m != nil {
		m.collTxFrames.Inc()
		m.collTxBytes.Add(uint64(len(msg) - 4))
	}
	if end {
		d.closeSend(o)
	}
	return true
}

// sever is how a lost link ends an operation, however it found out —
// waiting, stalled on credit, sending after a combine charge: ErrSevered
// wrapping the link's recorded failure (the failed send's, before the demux
// has seen it), naming the rank (who), op and tag.
func (o *planeOp) sever(d *linkDemux, err error) {
	cause := d.failure()
	if cause == nil {
		cause = fmt.Errorf("%w: %v", ErrSevered, err)
	}
	o.finish(fmt.Errorf("%s: %v tag %d: %w", o.pl.c.who(), o.op, o.tag, cause))
}

// finish ends o at this rank and wakes the daemon. A failed operation
// leaves nothing of its stream on any of the rank's links.
func (o *planeOp) finish(err error) {
	if o.done {
		return
	}
	o.done, o.err, o.out, o.src = true, err, nil, nil
	for slot := above; err != nil && slot < len(o.pl.c.children); slot++ {
		if d := o.link(slot); d != nil {
			d.abandon(o)
		}
	}
	o.w.Wake()
}

// emitUp ships one FE-bound frame: through the up hook at the root, up the
// parent link elsewhere.
func (o *planeOp) emitUp(f coll.Frame) error {
	if o.pl.c.parent != nil {
		o.send(outMsg{msg: encodeFrameOp(opCollChunk, opCollEnd, f), slot: above, to: above + 1})
		return nil
	}
	if o.pl.up == nil {
		return fmt.Errorf("%w: root plane has no up hook", errProtocol)
	}
	return o.pl.up(f)
}

// chunkSink is what a down phase assembles (coll.RawAssembler, RankAssembler).
type chunkSink interface {
	Add(coll.Header, []byte) error
}

// relay is the down phase of Broadcast, AllGather and AllReduce: a frame
// from above is assembled in sink and forwarded to the children — the very
// message it arrived in, or at the root one encoding for all of them (a
// Last chunk's end marker goes with it). It reports the end marker, for the
// caller to finish its assembler on.
func (o *planeOp) relay(f coll.Frame, sink chunkSink) (end bool, err error) {
	if !f.End {
		if err := sink.Add(f.H, f.Body); err != nil {
			return false, err
		}
	}
	if n := len(o.pl.c.children); n > 0 && !(f.End && f.Last) {
		msg := f.Wire
		if msg == nil {
			msg = encodeFrameOp(opCollChunk, opCollEnd, f)
		}
		o.send(outMsg{msg: msg, to: n})
	}
	if f.End {
		o.drain(none)
	}
	return f.End, nil
}

// redistribute is the root's down phase of AllGather and AllReduce, fed
// from the result it holds: every child is sent the whole stream,
// child-major, each frame encoded once for all of them.
func (o *planeOp) redistribute(frames []coll.Frame) {
	frames = coll.Merged(frames, o.pl.window)
	msgs := make([][]byte, len(frames))
	for i, f := range frames {
		msgs[i] = encodeFrameOp(opCollChunk, opCollEnd, f)
	}
	for slot := range o.pl.c.children {
		for _, msg := range msgs {
			o.send(outMsg{msg: msg, slot: slot, to: slot + 1})
		}
	}
	o.drain(none)
}

// upOnly is the result of an FE-bound Gather or Reduce, which has none.
func upOnly[T any](_ T, err error) error { return err }

// Broadcast receives one FE-originated broadcast, forwarding every chunk
// to the children as it arrives, and returns the reassembled payload.
func (pl *Plane) Broadcast() ([]byte, error) {
	return pl.broadcast(coll.OpBroadcast, pl.nextTag(), nil)
}

// BroadcastTag is Broadcast on an explicitly tagged concurrent stream.
func (pl *Plane) BroadcastTag(tag uint32) ([]byte, error) {
	return pl.broadcast(coll.OpBroadcast, tag, pl.userTag(tag))
}

// broadcastOp is a Broadcast at one rank, or a Reduce at the front end: the
// whole of what a daemon parked in one holds, its assembler by value.
type broadcastOp struct {
	planeOp
	asm coll.RawAssembler
	got []byte
}

func (pl *Plane) broadcast(op coll.Op, tag uint32, err error) ([]byte, error) {
	b := new(broadcastOp)
	if b.start(pl, b, op, tag, err) {
		b.drain(above)
	}
	if err := b.wait(); err != nil {
		return nil, err
	}
	return b.got, nil
}

func (b *broadcastOp) frame(f coll.Frame) error {
	end, err := b.relay(f, &b.asm)
	if end && err == nil {
		b.got, err = b.asm.Finish(f.H, f.Total)
	}
	return err
}

// Gather contributes mine to an FE-bound gather. Interior nodes stream
// their own entry first, then drain each child subtree's chunks as they
// arrive, re-coalescing the entries into bounded-size frames — so the
// number of messages on any link is bounded by subtree-bytes/chunk, not
// by the subtree's daemon count, and no link ever carries a monolithic
// K-entry payload.
func (pl *Plane) Gather(mine []byte) error {
	return upOnly(pl.gather(coll.OpGather, pl.nextTag(), nil, mine))
}

// GatherTag is Gather on an explicitly tagged concurrent stream.
func (pl *Plane) GatherTag(tag uint32, mine []byte) error {
	return upOnly(pl.gather(coll.OpGather, tag, pl.userTag(tag), mine))
}

// gatherOp is a Gather or an AllGather at one rank: this subtree's
// entries go up — its own first, then each child subtree's, drained in
// slot order and validated for per-link sequencing and entry count — and
// an AllGather's rank table comes back down (the root assembles it). At
// the front end a Gather is that down phase alone.
type gatherOp struct {
	planeOp
	pk    coll.Packer   // the entries going up
	in    coll.SeqCheck // the child being drained
	sub   uint64        // the entries it has sent
	table [][]byte      // an AllGather's result; at the root, assembled here
	n     int           // the ranks a table holds: the tree's, at the front end the fabric's
	down  coll.RankAssembler
}

func (pl *Plane) gather(op coll.Op, tag uint32, err error, mine []byte) ([][]byte, error) {
	g := &gatherOp{n: pl.c.size}
	if g.start(pl, g, op, tag, err) {
		g.pk = coll.Packer{Op: op, Tag: tag, ChunkBytes: pl.chunkBytes, Merge: true, Emit: g.emitUp}
		if op == coll.OpAllGather && pl.c.parent == nil {
			g.table = make([][]byte, g.n)
			g.table[pl.c.rank] = append([]byte{}, mine...) // non-nil marks a slot filled
		} else {
			g.pk.Add(coll.Entry{Rank: pl.c.rank, Blob: mine}) // the first entry never flushes
		}
		if err := g.next(0); err != nil {
			g.finish(err)
		}
	}
	if err := g.wait(); err != nil {
		return nil, err
	}
	return g.table, nil
}

// next moves the up phase on to child slot; past the last child the
// subtree's stream ends — at the root of an AllGather, its table goes
// down instead.
func (g *gatherOp) next(slot int) error {
	switch {
	case slot < len(g.pl.c.children):
		g.drain(slot)
	case g.table != nil:
		entries := make([]coll.Entry, len(g.table))
		for rk, blob := range g.table {
			if blob == nil {
				return fmt.Errorf("%w: allgather assembled no contribution of rank %d", errProtocol, rk)
			}
			entries[rk] = coll.Entry{Rank: rk, Blob: blob}
		}
		g.redistribute(coll.EntryFrames(coll.OpAllGather, g.tag, entries, g.pl.chunkBytes))
	case g.op == coll.OpAllGather:
		g.drain(above)
		return g.pk.End()
	default:
		g.drain(none)
		return g.pk.End()
	}
	return nil
}

func (g *gatherOp) frame(f coll.Frame) error {
	if g.slot == above {
		end, err := g.relay(f, &g.down)
		if end && err == nil {
			g.table, err = g.down.Finish(f.H, f.Total, g.n)
		}
		return err
	}
	if err := g.in.Admit(f.H); err != nil {
		return err
	}
	if f.End {
		if g.sub != f.Total {
			return fmt.Errorf("%w: child %d forwarded %d %v entries, end marker says %d",
				errProtocol, g.pl.c.childRank(g.slot), g.sub, g.op, f.Total)
		}
		g.in, g.sub = coll.SeqCheck{}, 0
		return g.next(g.slot + 1)
	}
	entries, err := coll.DecodeEntries(f.Body)
	if err != nil {
		return err
	}
	g.sub += uint64(len(entries))
	for _, e := range entries {
		if err := g.add(e); err != nil {
			return err
		}
	}
	return nil
}

// add takes one entry of a child subtree: into the packer going up, or
// into the table at the root of an AllGather.
func (g *gatherOp) add(e coll.Entry) error {
	if g.table == nil {
		return g.pk.Add(e)
	}
	if e.Rank >= len(g.table) || g.table[e.Rank] != nil {
		return fmt.Errorf("%w: rank %d contributed twice to (or is outside) a %d-daemon allgather",
			errProtocol, e.Rank, len(g.table))
	}
	g.table[e.Rank] = append([]byte{}, e.Blob...)
	return nil
}

// Reduce contributes mine to an FE-bound reduction: every node folds its
// children's subtree results into its own contribution with the named
// filter ("sum" or "concat", coll.LookupFilter — all daemons must name the
// same one) and ships one combined stream upward, so per-link bytes are
// bounded by the combined result, not the subtree size.
func (pl *Plane) Reduce(mine []byte, filter string) error {
	return upOnly(pl.reduce(coll.OpReduce, pl.nextTag(), nil, mine, filter))
}

// ReduceTag is Reduce on an explicitly tagged concurrent stream.
func (pl *Plane) ReduceTag(tag uint32, mine []byte, filter string) error {
	return upOnly(pl.reduce(coll.OpReduce, tag, pl.userTag(tag), mine, filter))
}

// reduceOp is a Reduce or an AllReduce at one rank: each child subtree's
// combined stream, drained in slot order, is folded into this rank's own
// contribution, and the up phase moves on one combine charge of
// PerMsgCost later — a timer on the scheduler. The result goes up; an
// AllReduce's final result comes back down (the root sends its own).
type reduceOp struct {
	planeOp
	fn     coll.Combine
	filter string
	acc    []byte
	asm    coll.RawAssembler // the child being drained, then the result from above
}

func (pl *Plane) reduce(op coll.Op, tag uint32, err error, mine []byte, filter string) ([]byte, error) {
	r := &reduceOp{filter: filter}
	if r.start(pl, r, op, tag, err) {
		if r.fn, err = coll.LookupFilter(filter); err == nil {
			r.acc, err = r.fn(nil, mine)
		}
		if err == nil {
			err = r.next(0)
		}
		if err != nil {
			r.finish(err)
		}
	}
	if err := r.wait(); err != nil {
		return nil, err
	}
	return r.acc, nil
}

// next moves the up phase on to child slot; past the last child the
// combined result goes up — at the root of an AllReduce, down instead.
func (r *reduceOp) next(slot int) error {
	if slot < len(r.pl.c.children) {
		r.drain(slot)
		return nil
	}
	frames := coll.RawFrames(r.op, r.tag, r.filter, r.acc, r.pl.chunkBytes)
	if r.pl.c.parent == nil && r.op == coll.OpAllReduce {
		r.redistribute(frames)
		return nil
	}
	if r.op == coll.OpAllReduce {
		r.drain(above)
	} else {
		r.drain(none)
	}
	for _, f := range coll.Merged(frames, r.pl.window) {
		if err := r.emitUp(f); err != nil {
			return err
		}
	}
	return nil
}

func (r *reduceOp) frame(f coll.Frame) error {
	if r.slot == above {
		end, err := r.relay(f, &r.asm)
		if end && err == nil {
			r.acc, err = r.asm.Finish(f.H, f.Total)
		}
		return err
	}
	if f.H.Filter != r.filter {
		return fmt.Errorf("%w: child %d reduces with filter %q, this node with %q",
			errProtocol, r.pl.c.childRank(r.slot), f.H.Filter, r.filter)
	}
	if !f.End {
		return r.asm.Add(f.H, f.Body)
	}
	blob, err := r.asm.Finish(f.H, f.Total)
	if err == nil {
		r.acc, err = r.fn(r.acc, blob)
	}
	if err == nil {
		r.asm, r.busy = coll.RawAssembler{}, true
		r.pl.c.p.Sim().AfterEvent(PerMsgCost, r) // the combine charge
	}
	return err
}

// Fire is the end of a combine charge: the up phase moves on.
func (r *reduceOp) Fire() {
	r.busy = false
	if err := r.next(r.slot + 1); err != nil {
		r.finish(err)
	}
	r.pump()
}

// AllGather contributes mine and returns every daemon's contribution
// indexed by rank: a gather up-phase into the root, then the assembled
// rank table redistributed down the tree in bounded chunks.
func (pl *Plane) AllGather(mine []byte) ([][]byte, error) {
	return pl.gather(coll.OpAllGather, pl.nextTreeTag(), nil, mine)
}

// AllReduce contributes mine to a reduction with the named filter and
// returns the combined result on every daemon: the Reduce up-phase
// folds into the root, whose final accumulator is redistributed down
// the tree (down-phase reuse of the up-phase combine).
func (pl *Plane) AllReduce(mine []byte, filter string) ([]byte, error) {
	return pl.reduce(coll.OpAllReduce, pl.nextTreeTag(), nil, mine, filter)
}
