package iccl

import (
	"encoding/binary"
	"fmt"
	"time"

	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// This file is the one walk of the seven ICCL frame opcodes a tree wave
// reads — barrier and release, broadcast, gather, scatter, fold and ready —
// that runs Comm's five collectives and a forming rank's ready wave,
// store-forward broadcast, ready gather and fold. A walk is a scheduler
// record, as Forming and planeOp are: the goroutine that starts it carries it
// as far as it goes and waits once, while its charges and link wakes carry it
// on. It reads one frame at a time, in child-slot order up, with one reader a
// rank (DESIGN.md "A tree read is charged per reader"): read before
// demuxLinks, the base queue after.

// walker owns a walk: the walk's charges and link wakes fire it, and each
// op the walk ends is handed to walked, which goes on, or stops (false).
type walker interface {
	vtime.Event
	walked(op uint32, err error) bool
}

// walk is one walk record. op is what it reads next — opBarrier, opGather,
// opFold or opReady up from the children, opRelease, opBcast or opScatter
// down from the parent — and 0 once it has ended.
type walk struct {
	c       *Comm
	owner   walker
	op      uint32
	n       uint32       // the ready wave's count of the subtree's ranks
	slot    int          // the child slot an up op reads next; a forming rank's dial attempts and accepts
	charged []byte       // a frame taken off a link while its PerMsgCost runs
	entries []coll.Entry // a gather's, then a scatter's
	all     [][]byte     // the gather's result at the root
	buf     []byte       // the broadcast's bytes, the fold's accumulator, then the scatter's part
	combine func(acc, next []byte) ([]byte, error)
	err     error        // what the walk ended with
	resume  vtime.Resume // a link's wake
	w       vtime.Waiter // the owner's goroutine
}

// newWalk makes a Comm call's walk of op over buf, its own walker.
func (c *Comm) newWalk(op uint32, buf []byte) *walk {
	w := &walk{c: c, op: op, buf: buf}
	w.bind(w)
	return w
}

// bind makes owner what the walk fires and hands its ends to.
func (w *walk) bind(owner walker) {
	w.owner = owner
	w.resume.Init(owner)
	w.w.Init(w.c.p.Sim())
}

// wait carries a Comm call's walk from the goroutine that made it, as far as
// it goes, then waits once for its end; it returns the walk's buf.
func (w *walk) wait() ([]byte, error) {
	w.Fire()
	if !w.w.Wait() {
		return nil, fmt.Errorf("%w: simulation ended in a collective at rank %d", ErrSevered, w.c.rank)
	}
	return w.buf, w.err
}

// Fire goes on from a charge or a link's wake until the walk waits or ends.
func (w *walk) Fire() {
	for w.op != 0 && w.step() {
	}
}

// walked ends a Comm call's walk: its goroutine takes the result, none
// after a failure.
func (w *walk) walked(_ uint32, err error) bool {
	if w.err = err; err != nil {
		w.buf = nil
	}
	w.w.Wake()
	return false
}

// end ends the walk's op with err and hands it to the owner.
func (w *walk) end(err error) bool {
	op := w.op
	w.op = 0
	return w.owner.walked(op, err)
}

// step takes the walk one frame on: an up op reads the children's frames in
// slot order, then sends its subtree's up; a down op reads the parent's, then
// sends on to the children. False while it waits, or when its owner stops.
// A failed read ends the walk with slot at the child it failed on.
func (w *walk) step() bool {
	c := w.c
	up := w.op == opBarrier || w.op == opGather || w.op == opFold || w.op == opReady
	if up && w.slot < len(c.children) {
		body, ok, err := w.take(w.slot)
		if !ok {
			return false
		}
		var sub []coll.Entry
		switch {
		case err != nil:
			return w.end(err)
		case w.op == opGather:
			sub, err = coll.DecodeEntries(body)
			w.entries = append(w.entries, sub...)
		case w.op == opFold:
			w.buf, err = foldStep(w.buf, body, w.combine)
		case w.op == opReady:
			w.n += binary.BigEndian.Uint32(body)
		}
		w.slot++
		return err == nil || w.end(err)
	}
	var err error
	switch {
	case w.op == opGather:
		w.all, err = c.gathered(w.entries)
		w.entries = nil
		return w.end(err)
	case w.op == opReady && c.parent == nil && int(w.n) != c.size:
		return w.end(fmt.Errorf("connected %d of %d daemons", w.n, c.size))
	case up && c.parent == nil:
	case w.op == opFold:
		err = c.sendOp(above, lmonp.AppendBytes(newFrame(opFold, 4+len(w.buf)), w.buf))
		w.buf = nil
	case w.op == opReady:
		err = c.sendOp(above, ctlFrame(opReady, w.n))
	case up:
		err = c.sendOp(above, newFrame(opBarrier, 0))
	case c.parent != nil: // down: the parent's frame first
		var body []byte
		var ok bool
		if body, ok, err = w.take(above); !ok {
			return false
		}
		switch {
		case err != nil:
		case w.op == opBcast: // a copy: the message is shared with the sender's other children
			rd := lmonp.NewReader(body)
			w.buf, err = append([]byte(nil), rd.Bytes()...), rd.Err()
		case w.op == opScatter:
			w.entries, err = coll.DecodeEntries(body)
		}
	}
	switch {
	case err != nil || w.op == opFold || w.op == opReady:
		return w.end(err)
	case w.op == opBarrier:
		w.op = opRelease // the release comes down
		return true
	case w.op == opBcast:
		return w.end(c.bcastDown(w.buf))
	case w.op == opScatter:
		return w.end(w.scatter())
	}
	return w.end(c.sendDown(newFrame(opRelease, 0)))
}

// scatter splits the scatter's entries, which arrive in rank order, by
// child subtree — every onward list stays in rank order — sends each on,
// and keeps the rank's own part.
func (w *walk) scatter() error {
	c := w.c
	subs := make([][]coll.Entry, len(c.children))
	have := false
	for _, e := range w.entries {
		if e.Rank == c.rank {
			w.buf, have = e.Blob, true
			continue
		}
		slot := subtreeSlot(c.rank, c.fanout, len(subs), e.Rank)
		if slot < 0 {
			return fmt.Errorf("%w: scatter part for rank %d outside rank %d's subtree", errProtocol, e.Rank, c.rank)
		}
		subs[slot] = append(subs[slot], e)
	}
	for slot := range c.children {
		if err := c.sendOp(slot, entriesFrame(opScatter, subs[slot])); err != nil {
			return err
		}
	}
	if !have {
		return fmt.Errorf("%w: no scatter part for rank %d", errProtocol, c.rank)
	}
	return nil
}

// take reads the walk's next frame off the link a slot names and checks it
// (opBody), pinning a failure on the peer; ok is false while the walk waits
// for it.
func (w *walk) take(slot int) (body []byte, ok bool, err error) {
	var frame []byte
	var wait bool
	if d := w.c.demux(slot); d == nil {
		frame, ok, err = w.read(w.c.conn(slot))
		wait = !ok
	} else if frame, ok, wait = d.queue(&d.base).Await(&w.resume); !ok {
		err = d.failure() // closed: the link failed
	}
	if wait {
		return nil, false, nil
	}
	if body, err = w.c.opBody(w.op, frame, err); err != nil {
		err = pinOn(w.c.peerRank(slot), w.op, err)
	}
	return body, true, err
}

// read takes conn's next frame as the serial reader does: a message (or the
// link's end) is taken at once and charged PerMsgCost, then handed over; ok
// is false while the walk waits. A message that is no frame fails, uncharged.
func (w *walk) read(conn *simnet.Conn) (frame []byte, ok bool, err error) {
	if w.charged != nil {
		frame, w.charged = w.charged, nil
		w.c.countRx(frame)
		return frame, true, nil
	}
	msg, wait, err := conn.AwaitMessage(&w.resume)
	if wait {
		return nil, false, nil
	}
	if err == nil {
		frame, err = lmonp.FrameFromMessage(msg)
	}
	if err != nil {
		return nil, true, err
	}
	w.charged = frame // never nil: a frame is a message's tail
	w.after(PerMsgCost)
	return nil, false, nil
}

// after fires the owner d from now.
func (w *walk) after(d time.Duration) { w.c.p.Sim().AfterEvent(d, w.owner) }
