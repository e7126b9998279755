package core

import (
	"bytes"
	"errors"
	"fmt"

	"launchmon/internal/coll"
	"launchmon/internal/iccl"
	"launchmon/internal/lmonp"
	"launchmon/internal/obs"
	"launchmon/internal/vtime"
)

// This file is the sorted read side of an FE↔master connection, at either
// end: its one handler sorts tool data into a queue and hands a collective
// frame where it arrives to its end's plane (iccl.Plane.PushFE) — the root
// plane at the master, the fabric's front-end plane at the front end.

// rxStreams is one connection's sorted receive side.
type rxStreams struct {
	sim  *vtime.Sim
	usr  *vtime.Chan[[]byte] // TypeUsrData payloads
	peer string              // who writes the connection, for diagnostics
	pl   *iccl.Plane         // the plane its collective frames go to; nil once failed
	reg  *obs.Registry       // at the front end, where its collective frames are counted
	err  error               // why the collective streams failed, once they have

	forming *iccl.Forming // the master's record until its ready: what the front end's ask ends
}

func newRxStreams(sim *vtime.Sim, peer string, pl *iccl.Plane, reg *obs.Registry) *rxStreams {
	return &rxStreams{sim: sim, usr: vtime.NewChan[[]byte](sim), peer: peer, pl: pl, reg: reg}
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
			r.reg.Counter("coll.fe.rx.frames").Inc()
			r.reg.Counter("coll.fe.rx.bytes").Add(uint64(len(f.Body)))
			if f.H.Op == coll.OpReduce { // bounded by the combined result, not the fabric
				r.reg.Counter("coll.reduce.fe.rx.bytes").Add(uint64(len(f.Body)))
			}
			r.pl.PushFE(f)
		}
	default:
		return false
	}
	return true
}

// fail ends every consumer with err — the connection is gone — and drops
// the plane, which the connection's handler keeps as long as its peer lives,
// in an event of its own: a tool's Detach or Kill calls it while a caller
// may still be running its operation, which only that caller may touch.
func (r *rxStreams) fail(err error) {
	r.sim.After(0, func() {
		r.failStreams(err)
		r.usr.Close()
		r.pl = nil
	})
}

// failStreams ends every collective stream, running or later, with err (the
// first cause counts) once what arrived before it has been taken.
func (r *rxStreams) failStreams(err error) {
	if r.err == nil {
		r.err = err
	}
	if r.pl != nil {
		r.pl.FailFE(err)
	}
}

// recvUsr yields the next tool-data payload, or the cause fail was given.
// The payload aliases the message it arrived in; what a tool receives is
// its own copy (DESIGN.md "Buffer ownership").
func (r *rxStreams) recvUsr() ([]byte, error) {
	data, ok := r.usr.Recv()
	if !ok {
		return nil, r.err
	}
	return bytes.Clone(data), nil
}

// receive runs one FE-bound operation on st's stream at the front end's
// plane: its caller waits once while the connection's handler pushes it
// what the stream holds. A severed link reports the streams' failure as it
// was given — a malformed frame, or the terminal fault detail.
func (st feStream) receive(op coll.Op, span string) ([][]byte, []byte, error) {
	if st.err != nil {
		return nil, nil, st.err
	}
	sp := st.fab.s.obsRec.Start(span)
	defer sp.End()
	table, blob, err := st.fab.pl.Receive(op, st.tag, len(st.fab.infos))
	if errors.Is(err, iccl.ErrSevered) {
		if err = st.fab.rx.err; err == nil {
			err = ErrSessionClosed // the simulation ended under the call
		}
	}
	return table, blob, err
}
