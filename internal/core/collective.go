package core

import (
	"errors"
	"fmt"

	"launchmon/internal/coll"
	"launchmon/internal/iccl"
	"launchmon/internal/lmonp"
)

// This file is the front end's half of the collective tool-data plane:
// Session.Broadcast / Gather / Reduce, their tagged forms and MWGather,
// mirrored by the daemons' Collective handle (an iccl.Plane) on the
// fabric's tree, where payloads ride as bounded-size chunk streams (codec
// internal/coll) that interior daemons forward — and, for Reduce, combine.
//
// Each plane is collective in the MPI sense: the front end and every
// daemon of the fabric must issue matching operations in the same order.
// A per-fabric tag advanced in lockstep on all participants turns order
// violations into protocol errors. Ordering guarantees: Gather results
// are rank-indexed; concat-style reductions combine in deterministic
// tree order (own subtree first, then children by rank), which is not
// rank order — tools needing rank order gather instead.

// feFabric is the front end's state for one daemon fabric of a session
// (Session.be, Session.mw): its share of the session's state machine
// (state.go; written by step under s.mu), the lockstep collective sequence
// and the daemon set operations are sized against.
type feFabric struct {
	s    *Session
	prof fabricProfile

	st     fabState
	launch *seedRelay   // the launching call's sub-state; nil unless fabLaunching
	conn   *lmonp.Conn  // the master connection, from the moment the mux hands it over
	rx     *rxStreams   // its sorted receive side, fed by onLink
	pl     *iccl.Plane  // the front end's plane, above the root's: what rx feeds
	infos  []DaemonInfo // the daemon set the master reported ready
	seq    uint32       // lockstep collective sequence, FE side
}

// pre prefixes fault details and diagnostics ("" for the BE fabric and for
// nil, the engine link; "mw " for the MW fabric) so tools and fault errors
// can tell which fabric's daemon was lost.
func (fab *feFabric) pre() string {
	if fab != nil && fab.prof.mw {
		return "mw "
	}
	return ""
}

// live returns the fabric's master connection, or why operations on it
// cannot proceed: the session has no such fabric, or it is over (the
// terminal error, see closedErr).
func (fab *feFabric) live() (*lmonp.Conn, error) {
	s := fab.s
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case fab.st != fabUp && fab.prof.mw:
		return nil, fmt.Errorf("core: session %d has no middleware daemons", s.ID)
	case fab.st != fabUp || s.state != stReady:
		return nil, s.closedErrLocked()
	}
	return fab.conn, nil
}

// sendUsr ships tool data to the fabric's master daemon. A send on an
// ended session reports the bare ErrSessionClosed: the fault detail
// belongs to the receive paths, which are the ones a fault leaves blocked.
func (fab *feFabric) sendUsr(data []byte) error {
	conn, err := fab.live()
	if errors.Is(err, ErrSessionClosed) {
		return ErrSessionClosed
	}
	if err != nil {
		return err
	}
	return conn.Send(&lmonp.Msg{Class: fab.prof.class, Type: lmonp.TypeUsrData, UsrData: data})
}

// recvUsr receives tool data from the fabric's master daemon (sorted by
// rxStreams). On a session a fault tore down, the error wraps the terminal
// fault detail (see closedErr).
func (fab *feFabric) recvUsr() ([]byte, error) {
	if _, err := fab.live(); err != nil {
		return nil, err
	}
	return fab.rx.recvUsr()
}

// feStream is one collective operation resolved against its fabric: the
// live master connection and the stream tag it runs under, or the reason
// it cannot run.
type feStream struct {
	fab  *feFabric
	conn *lmonp.Conn
	tag  uint32
	err  error
}

// lockstep resolves the fabric's next lockstep operation, advancing the
// FE side of the collective sequence (only on a live fabric, so the
// sequence cannot drift from the daemons').
func (fab *feFabric) lockstep() feStream {
	conn, err := fab.live()
	if err != nil {
		return feStream{err: err}
	}
	fab.seq++
	return feStream{fab: fab, conn: conn, tag: fab.seq}
}

// tagged resolves an operation on an explicitly allocated stream tag.
func (fab *feFabric) tagged(tag uint32) feStream {
	conn, err := fab.live()
	if err == nil && (tag < coll.MinUserTag || tag >= coll.MaxUserTag) {
		err = fmt.Errorf("core: user tag %d outside [%d, %d)", tag, coll.MinUserTag, coll.MaxUserTag)
	}
	return feStream{fab: fab, conn: conn, tag: tag, err: err}
}

// AllocTag allocates a session-unique user stream tag from
// [coll.MinUserTag, coll.MaxUserTag) for the tagged collective operations
// (BroadcastTag/GatherTag/ReduceTag, paired with the daemon-side *Tag
// operations under the same tag). Safe to call from any goroutine.
func (s *Session) AllocTag() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	tag := coll.MinUserTag + s.userTags
	s.userTags++
	return tag
}

// sendFrameOn bridges one collective frame onto an LMONP connection —
// the single Frame→message mapping, shared by the FE sender and the
// masters' up hooks. Header and body are rendered straight into the
// message buffer the network then carries, so the caller's data is copied
// exactly once and is the caller's again when the send returns.
func sendFrameOn(c *lmonp.Conn, class lmonp.MsgClass, f coll.Frame) error {
	typ, body := lmonp.TypeCollChunk, f.Body
	if f.End {
		typ, body = lmonp.TypeCollEnd, nil
	} else if f.Last {
		typ = lmonp.TypeCollEnd
	}
	buf, err := lmonp.Begin(class, typ, f.PayloadSize(), len(body))
	if err != nil {
		return err
	}
	return c.SendEncoded(append(f.AppendPayload(buf), body...))
}

// The seven operations below are the three collectives over the back-end
// fabric in a lockstep and a tagged form, and the middleware fabric's one,
// MWGather. The tagged forms run on an explicitly allocated stream
// (AllocTag) paired with the daemon-side *Tag operation under the same
// tag; any number may be in flight on a session at once, each driven by
// its own goroutine.

// Broadcast ships data to every back-end daemon over the ICCL tree. Every
// daemon receives it from Collective().Broadcast.
func (s *Session) Broadcast(data []byte) error { return s.be.lockstep().broadcast(data) }

// BroadcastTag is Broadcast on an explicitly tagged concurrent stream.
func (s *Session) BroadcastTag(tag uint32, data []byte) error {
	return s.be.tagged(tag).broadcast(data)
}

// Gather collects one byte slice from every back-end daemon
// (Collective().Gather), indexed by rank. Contributions stream to the
// front end as bounded-size chunks routed up the tree, arriving as each
// subtree completes rather than as one monolithic master payload.
func (s *Session) Gather() ([][]byte, error) { return s.be.lockstep().gather() }

// MWGather collects one byte slice from every middleware daemon over the
// MW tree (contributed by Middleware.Collective().Gather).
func (s *Session) MWGather() ([][]byte, error) { return s.mw.lockstep().gather() }

// GatherTag is Gather on an explicitly tagged concurrent stream.
func (s *Session) GatherTag(tag uint32) ([][]byte, error) { return s.be.tagged(tag).gather() }

// Reduce receives the tree-combined reduction of every daemon's
// Collective().Reduce contribution. The filter is chosen daemon-side and
// applied at every interior node, so per-link bytes are bounded by the
// combined result — a sum or top-k sample reaches the front end at a
// size independent of the daemon count.
func (s *Session) Reduce() ([]byte, error) { return s.be.lockstep().reduce() }

// ReduceTag is Reduce on an explicitly tagged concurrent stream.
func (s *Session) ReduceTag(tag uint32) ([]byte, error) { return s.be.tagged(tag).reduce() }

// send ships the frames of one FE-originated stream to the master daemon,
// the last chunk carrying the end marker and the last window its Tail, for
// the tree the master relays them down.
func (st feStream) send(frames []coll.Frame) error {
	s := st.fab.s
	for _, f := range coll.Merged(frames, coll.Window(s.collWindow)) {
		if err := sendFrameOn(st.conn, st.fab.prof.class, f); err != nil {
			return err
		}
		s.obsCounter("coll.fe.tx.frames").Inc()
		s.obsCounter("coll.fe.tx.bytes").Add(uint64(len(f.Body)))
	}
	return nil
}

func (st feStream) broadcast(data []byte) error {
	if st.err != nil {
		return st.err
	}
	s := st.fab.s
	sp := s.obsRec.Start("fe-broadcast")
	defer sp.End()
	return st.send(coll.RawFrames(coll.OpBroadcast, st.tag, "", data, s.collChunk))
}

func (st feStream) gather() ([][]byte, error) {
	table, _, err := st.receive(coll.OpGather, "fe-gather")
	return table, err
}

func (st feStream) reduce() ([]byte, error) {
	_, blob, err := st.receive(coll.OpReduce, "fe-reduce")
	return blob, err
}
