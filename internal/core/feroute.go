package core

import (
	"fmt"
	"sync"

	"launchmon/internal/coll"
	"launchmon/internal/iccl"
	"launchmon/internal/lmonp"
	"launchmon/internal/vtime"
)

// This file is the sorted read side of an FE↔master connection, at either
// end: its one handler sorts tool data into a queue and hands a collective
// frame to the operation of its stream (keyed by coll.FEStream) where it
// arrives — at the master the root plane's (iccl.Plane.PushFE), at the
// front end the record of a Gather or Reduce whose caller waits once.

// rxStreams is one connection's sorted receive side.
type rxStreams struct {
	sim  *vtime.Sim
	usr  *vtime.Chan[[]byte] // TypeUsrData payloads
	peer string              // who writes the connection, for diagnostics
	pl   *iccl.Plane         // at the master, the root plane its collective frames go to

	mu    sync.Mutex
	err   error                   // why the collective streams failed, once they have
	q     map[uint32][]coll.Frame // at the front end, each stream's frames no call has taken
	calls map[uint32]*feCall      // and the call taking them
}

// feCall is one Gather or Reduce at the front end.
type feCall struct {
	st    feStream
	op    coll.Op
	ranks coll.RankAssembler // a Gather's
	raw   coll.RawAssembler  // a Reduce's
	table [][]byte
	blob  []byte
	err   error
	w     vtime.Waiter
}

func newRxStreams(sim *vtime.Sim, peer string, pl *iccl.Plane) *rxStreams {
	return &rxStreams{sim: sim, usr: vtime.NewChan[[]byte](sim), peer: peer, pl: pl,
		q: map[uint32][]coll.Frame{}, calls: map[uint32]*feCall{}}
}

// sort routes msg to its consumer when it is tool data or a collective
// frame, and reports whether it was. An undecodable collective frame names
// no trustworthy tag, so it fails every collective stream, running or
// later, rather than leave one waiting for an end marker that never comes.
func (r *rxStreams) sort(msg *lmonp.Msg) bool {
	switch msg.Type {
	case lmonp.TypeUsrData:
		r.usr.Send(msg.UsrData)
	case lmonp.TypeCollChunk, lmonp.TypeCollEnd:
		f, err := coll.DecodeMsg(msg.Type == lmonp.TypeCollEnd, msg.Payload, msg.UsrData)
		switch {
		case err != nil:
			r.failStreams(fmt.Errorf("core: malformed collective frame from %s: %w", r.peer, err))
		case r.pl != nil:
			r.pl.PushFE(f)
		default:
			r.mu.Lock()
			if k := coll.FEStream(f.H.Tag); r.err == nil { // else dropped: the streams have failed
				r.q[k] = append(r.q[k], f)
				r.step(k)
			}
			r.mu.Unlock()
		}
	default:
		return false
	}
	return true
}

// fail ends every consumer with err — the connection is gone — and drops
// the plane, which the connection's handler keeps as long as its peer lives.
func (r *rxStreams) fail(err error) {
	r.failStreams(err)
	r.usr.Close()
	r.pl = nil
}

// failStreams ends every collective stream, running or later, with err (the
// first cause counts) once what arrived before it has been taken.
func (r *rxStreams) failStreams(err error) {
	if r.pl != nil {
		r.pl.FailFE(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil {
		r.err = err
		for k := range r.calls {
			r.step(k)
		}
	}
}

// recvUsr yields the next tool-data payload, or the cause fail was given.
func (r *rxStreams) recvUsr() ([]byte, error) {
	data, ok := r.usr.Recv()
	if !ok {
		return nil, r.err
	}
	return data, nil
}

// run carries one FE-bound operation on st's stream: it takes what arrived
// before the call, then its caller waits once while sort hands it the rest,
// up to the end marker, a frame that fails it, or the streams' failure (a
// malformed frame, or the terminal fault detail of a dying session).
func (st feStream) run(op coll.Op, span string) (*feCall, error) {
	c := &feCall{st: st, op: op}
	if st.err != nil {
		return c, st.err
	}
	sp := st.fab.s.obsRec.Start(span, -1)
	defer sp.End()
	r, k := st.fab.rx, coll.FEStream(st.tag)
	c.w.Init(r.sim)
	r.mu.Lock()
	r.calls[k] = c
	r.step(k)
	r.mu.Unlock()
	if !c.w.Wait() {
		return c, ErrSessionClosed
	}
	return c, c.err
}

// step hands stream k's call what the stream holds, finishing the call —
// waking its caller — at the end marker, on the first error, or on the
// connection's failure once the backlog is taken. A call still running
// keeps the backlog's array for its next frames. Caller holds mu.
func (r *rxStreams) step(k uint32) {
	q, n := r.q[k], 0
	for c := r.calls[k]; c != nil && (n < len(q) || r.err != nil); c = r.calls[k] {
		if n == len(q) {
			c.err = r.err
		} else if n++; !c.take(q[n-1]) {
			continue
		}
		delete(r.calls, k)
		c.w.Wake()
	}
	switch {
	case n < len(q):
		r.q[k] = q[n:]
	case r.calls[k] != nil:
		r.q[k] = q[:0]
	default:
		delete(r.q, k)
	}
}

// take steps c with one frame of its stream and reports whether c is over.
func (c *feCall) take(f coll.Frame) bool {
	s := c.st.fab.s
	s.obsCounter("coll.fe.rx.frames").Inc()
	s.obsCounter("coll.fe.rx.bytes").Add(uint64(len(f.Body)))
	switch {
	case f.H.Op != c.op || f.H.Tag != c.st.tag:
		c.err = fmt.Errorf("core: %v frame tag %d during %v tag %d (collective order diverged)",
			f.H.Op, f.H.Tag, c.op, c.st.tag)
	case c.op == coll.OpGather && f.End:
		c.table, c.err = c.ranks.Finish(f.H, f.Total, len(c.st.fab.infos))
	case c.op == coll.OpGather:
		c.err = c.ranks.Add(f.H, f.Body)
	default:
		// The K-independence invariant of filtered reduction: bytes landing
		// on the FE link are bounded by the combined result, not the fabric.
		s.obsCounter("coll.reduce.fe.rx.bytes").Add(uint64(len(f.Body)))
		if f.End {
			c.blob, c.err = c.raw.Finish(f.H, f.Total)
		} else {
			c.err = c.raw.Add(f.H, f.Body)
		}
	}
	return f.End || c.err != nil
}
