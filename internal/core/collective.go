package core

import (
	"fmt"
	"sync"

	"launchmon/internal/coll"
	"launchmon/internal/iccl"
	"launchmon/internal/lmonp"
	"launchmon/internal/vtime"
)

// This file is the user-data collective plane (the successor of the flat
// SendToBE/RecvFromBE pipe for bulk tool traffic): Session.Broadcast /
// Scatter / Gather / Reduce on the front end, mirrored by the daemon-side
// Collective handle on every back-end daemon — and, since the MW fabric
// gained parity, Session.MWBroadcast / MWScatter / MWGather / MWReduce
// mirrored by Middleware.Collective over the MW tree. Payloads ride the
// fabric's ICCL k-ary tree as bounded-size chunk streams (codec
// internal/coll, routing internal/iccl); interior daemons forward — and,
// for Reduce, combine — instead of the master relaying every byte over
// its single FE link.
//
// Each plane is collective in the MPI sense: the front end and every
// daemon of the fabric must issue matching operations in the same order.
// A per-fabric tag advanced in lockstep on all participants turns order
// violations into protocol errors. Ordering guarantees: Gather results
// are rank-indexed; concat-style reductions combine in deterministic
// tree order (own subtree first, then children by rank), which is not
// rank order — tools needing rank order gather instead.

// feFabric is a snapshot of one fabric's FE-side plane state: the master
// connection the FE sends on, the queues its reader demuxes collective
// frames into (lockstep and user-tagged), and the daemon count the
// operations are sized against.
type feFabric struct {
	class lmonp.MsgClass
	conn  *lmonp.Conn
	collQ *vtime.Chan[collEvent]
	tags  *tagRouter
	size  int
	kind  string // "" for BE, "MW " for diagnostics
}

// beFab snapshots the BE fabric, or the session's terminal error.
func (s *Session) beFab() (feFabric, error) {
	if s.beMaster == nil || s.closed() {
		return feFabric{}, s.closedErr()
	}
	return feFabric{class: lmonp.ClassFEBE, conn: s.beMaster, collQ: s.beColl, tags: s.beTags, size: len(s.daemons)}, nil
}

// mwFab snapshots the MW fabric: an error when the session has no
// middleware daemons, the terminal error when the session is over.
func (s *Session) mwFab() (feFabric, error) {
	s.mu.Lock()
	conn, collQ, tags, size := s.mwMaster, s.mwColl, s.mwTags, len(s.mwInfos)
	s.mu.Unlock()
	if conn == nil {
		return feFabric{}, fmt.Errorf("core: session %d has no middleware daemons", s.ID)
	}
	if s.closed() {
		return feFabric{}, s.closedErr()
	}
	return feFabric{class: lmonp.ClassFEMW, conn: conn, collQ: collQ, tags: tags, size: size, kind: "MW "}, nil
}

// tagRouter demultiplexes one master connection's user-tagged collective
// streams into per-tag queues, so N tool goroutines can run M concurrent
// tagged collectives over one session without head-of-line blocking each
// other. All methods are nil-receiver-safe: hand-rolled Sessions (tests)
// that never use tagged operations carry a nil router.
type tagRouter struct {
	sim    *vtime.Sim
	mu     sync.Mutex
	closed bool
	bad    error // poison: fails current and future tagged streams
	tags   map[uint32]*vtime.Chan[collEvent]
}

func newTagRouter(sim *vtime.Sim) *tagRouter { return &tagRouter{sim: sim} }

// q returns (creating on demand) the queue of one tagged stream. Queues
// created after the router closed come pre-closed; queues created after a
// poison event come pre-poisoned — either way a late subscriber observes
// the failure instead of parking forever.
func (tr *tagRouter) q(tag uint32) *vtime.Chan[collEvent] {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.tags == nil {
		tr.tags = make(map[uint32]*vtime.Chan[collEvent])
	}
	q := tr.tags[tag]
	if q == nil {
		q = vtime.NewChan[collEvent](tr.sim)
		if tr.bad != nil {
			q.Send(collEvent{err: tr.bad})
		}
		if tr.closed {
			q.Close()
		}
		tr.tags[tag] = q
	}
	return q
}

// send routes one decoded frame to its tag's stream.
func (tr *tagRouter) send(tag uint32, ev collEvent) {
	if tr == nil {
		return
	}
	tr.q(tag).Send(ev)
}

// poison fails every tagged stream — current and future — with err (an
// undecodable frame names no trustworthy tag, so no stream may keep
// waiting).
func (tr *tagRouter) poison(err error) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.bad == nil {
		tr.bad = err
	}
	qs := make([]*vtime.Chan[collEvent], 0, len(tr.tags))
	for _, q := range tr.tags {
		qs = append(qs, q)
	}
	tr.mu.Unlock()
	for _, q := range qs {
		q.Send(collEvent{err: err})
	}
}

// close wakes every tagged receiver with stream end (the session died or
// the master finalized); the caller's closedErr explains why.
func (tr *tagRouter) close() {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.closed = true
	qs := make([]*vtime.Chan[collEvent], 0, len(tr.tags))
	for _, q := range tr.tags {
		qs = append(qs, q)
	}
	tr.mu.Unlock()
	for _, q := range qs {
		q.Close()
	}
}

// drop retires a completed stream's queue so tag state does not
// accumulate across collectives.
func (tr *tagRouter) drop(tag uint32) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	delete(tr.tags, tag)
	tr.mu.Unlock()
}

// AllocTag allocates a session-unique user stream tag from
// [coll.MinUserTag, coll.MaxUserTag) for the tagged collective operations
// (BroadcastTag/ScatterTag/GatherTag/ReduceTag and the MW mirrors, paired
// with the daemon-side *Tag operations under the same tag). Safe to call
// from any goroutine.
func (s *Session) AllocTag() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	tag := coll.MinUserTag + s.userTags
	s.userTags++
	return tag
}

// checkUserTag validates an explicitly allocated stream tag.
func checkUserTag(tag uint32) error {
	if tag < coll.MinUserTag || tag >= coll.MaxUserTag {
		return fmt.Errorf("core: user tag %d outside [%d, %d)", tag, coll.MinUserTag, coll.MaxUserTag)
	}
	return nil
}

// tagFab validates a tagged operation's inputs against the fabric
// snapshot (tag range plus a usable tag router).
func tagFab(fab feFabric, tag uint32) error {
	if err := checkUserTag(tag); err != nil {
		return err
	}
	if fab.tags == nil {
		return fmt.Errorf("core: session has no tagged-collective router")
	}
	return nil
}

// nextCollTag advances the FE side of the BE fabric's collective sequence.
func (s *Session) nextCollTag() uint32 {
	s.collTag++
	return s.collTag
}

// nextMWCollTag advances the FE side of the MW fabric's sequence.
func (s *Session) nextMWCollTag() uint32 {
	s.mwTag++
	return s.mwTag
}

// sendFrameOn bridges one collective frame onto an LMONP connection —
// the single Frame→message mapping, shared by the FE sender and the
// masters' up hooks.
func sendFrameOn(c *lmonp.Conn, class lmonp.MsgClass, f coll.Frame) error {
	payload, usr := f.EncodeMsg()
	typ := lmonp.TypeCollChunk
	if f.End {
		typ = lmonp.TypeCollEnd
	}
	return c.Send(&lmonp.Msg{Class: class, Type: typ, Payload: payload, UsrData: usr})
}

// Broadcast ships data to every back-end daemon over the ICCL tree. Every
// daemon receives it from Collective().Broadcast.
func (s *Session) Broadcast(data []byte) error {
	fab, err := s.beFab()
	if err != nil {
		return err
	}
	return s.collBroadcast(fab, s.nextCollTag(), data)
}

// MWBroadcast ships data to every middleware daemon over the MW tree
// (received by Middleware.Collective().Broadcast).
func (s *Session) MWBroadcast(data []byte) error {
	fab, err := s.mwFab()
	if err != nil {
		return err
	}
	return s.collBroadcast(fab, s.nextMWCollTag(), data)
}

// BroadcastTag is Broadcast on an explicitly tagged concurrent stream
// (daemons receive with Collective().BroadcastTag under the same tag).
func (s *Session) BroadcastTag(tag uint32, data []byte) error {
	fab, err := s.beFab()
	if err != nil {
		return err
	}
	if err := tagFab(fab, tag); err != nil {
		return err
	}
	return s.collBroadcast(fab, tag, data)
}

// MWBroadcastTag is BroadcastTag over the MW fabric.
func (s *Session) MWBroadcastTag(tag uint32, data []byte) error {
	fab, err := s.mwFab()
	if err != nil {
		return err
	}
	if err := tagFab(fab, tag); err != nil {
		return err
	}
	return s.collBroadcast(fab, tag, data)
}

func (s *Session) collBroadcast(fab feFabric, tag uint32, data []byte) error {
	sp := s.obsRec.Start("fe-broadcast", -1)
	defer sp.End()
	for _, f := range coll.RawFrames(coll.OpBroadcast, tag, "", data, s.collChunk) {
		if err := sendFrameOn(fab.conn, fab.class, f); err != nil {
			return err
		}
		s.obsCounter("coll.fe.tx.frames").Inc()
		s.obsCounter("coll.fe.tx.bytes").Add(uint64(len(f.Body)))
	}
	return nil
}

// Scatter delivers parts[rank] to each back-end daemon (one part per
// daemon, in rank order). Daemons receive their part from
// Collective().Scatter; interior tree nodes route each part toward its
// rank's subtree, so no single link ever carries the whole part set.
func (s *Session) Scatter(parts [][]byte) error {
	fab, err := s.beFab()
	if err != nil {
		return err
	}
	return s.collScatter(fab, s.nextCollTag(), parts)
}

// MWScatter delivers parts[rank] to each middleware daemon over the MW
// tree (received by Middleware.Collective().Scatter).
func (s *Session) MWScatter(parts [][]byte) error {
	fab, err := s.mwFab()
	if err != nil {
		return err
	}
	return s.collScatter(fab, s.nextMWCollTag(), parts)
}

// ScatterTag is Scatter on an explicitly tagged concurrent stream
// (daemons receive with Collective().ScatterTag under the same tag).
func (s *Session) ScatterTag(tag uint32, parts [][]byte) error {
	fab, err := s.beFab()
	if err != nil {
		return err
	}
	if err := tagFab(fab, tag); err != nil {
		return err
	}
	return s.collScatter(fab, tag, parts)
}

// MWScatterTag is ScatterTag over the MW fabric.
func (s *Session) MWScatterTag(tag uint32, parts [][]byte) error {
	fab, err := s.mwFab()
	if err != nil {
		return err
	}
	if err := tagFab(fab, tag); err != nil {
		return err
	}
	return s.collScatter(fab, tag, parts)
}

func (s *Session) collScatter(fab feFabric, tag uint32, parts [][]byte) error {
	if len(parts) != fab.size {
		return fmt.Errorf("core: scatter needs %d parts (one per daemon), got %d", fab.size, len(parts))
	}
	sp := s.obsRec.Start("fe-scatter", -1)
	defer sp.End()
	entries := make([]coll.Entry, len(parts))
	for rk, p := range parts {
		entries[rk] = coll.Entry{Rank: rk, Blob: p}
	}
	for _, f := range coll.EntryFrames(coll.OpScatter, tag, entries, s.collChunk) {
		if err := sendFrameOn(fab.conn, fab.class, f); err != nil {
			return err
		}
		s.obsCounter("coll.fe.tx.frames").Inc()
		s.obsCounter("coll.fe.tx.bytes").Add(uint64(len(f.Body)))
	}
	return nil
}

// recvCollFrame waits for the next collective frame routed by the
// fabric's watcher into q (the lockstep queue or one tagged stream),
// surfacing a malformed frame's decode error or — if the session dies
// mid-collective — the terminal fault detail.
func (s *Session) recvCollFrame(fab feFabric, q *vtime.Chan[collEvent]) (coll.Frame, error) {
	ev, ok := q.Recv()
	if !ok {
		return coll.Frame{}, s.closedErr()
	}
	if ev.err != nil {
		return coll.Frame{}, fmt.Errorf("core: malformed collective frame from %smaster daemon: %w", fab.kind, ev.err)
	}
	s.obsCounter("coll.fe.rx.frames").Inc()
	s.obsCounter("coll.fe.rx.bytes").Add(uint64(len(ev.f.Body)))
	return ev.f, nil
}

// Gather collects one byte slice from every back-end daemon
// (Collective().Gather), indexed by rank. Contributions stream to the
// front end as bounded-size chunks routed up the tree, arriving as each
// subtree completes rather than as one monolithic master payload.
func (s *Session) Gather() ([][]byte, error) {
	fab, err := s.beFab()
	if err != nil {
		return nil, err
	}
	return s.collGather(fab, fab.collQ, s.nextCollTag())
}

// MWGather collects one byte slice from every middleware daemon over the
// MW tree (contributed by Middleware.Collective().Gather).
func (s *Session) MWGather() ([][]byte, error) {
	fab, err := s.mwFab()
	if err != nil {
		return nil, err
	}
	return s.collGather(fab, fab.collQ, s.nextMWCollTag())
}

// GatherTag is Gather on an explicitly tagged concurrent stream: daemons
// contribute with Collective().GatherTag under the same tag (from
// AllocTag), and any number of tagged collectives may be in flight on the
// session at once, each driven by its own goroutine.
func (s *Session) GatherTag(tag uint32) ([][]byte, error) {
	fab, err := s.beFab()
	if err != nil {
		return nil, err
	}
	return s.tagGather(fab, tag)
}

// MWGatherTag is GatherTag over the MW fabric.
func (s *Session) MWGatherTag(tag uint32) ([][]byte, error) {
	fab, err := s.mwFab()
	if err != nil {
		return nil, err
	}
	return s.tagGather(fab, tag)
}

func (s *Session) tagGather(fab feFabric, tag uint32) ([][]byte, error) {
	if err := tagFab(fab, tag); err != nil {
		return nil, err
	}
	defer fab.tags.drop(tag)
	return s.collGather(fab, fab.tags.q(tag), tag)
}

func (s *Session) collGather(fab feFabric, q *vtime.Chan[collEvent], tag uint32) ([][]byte, error) {
	sp := s.obsRec.Start("fe-gather", -1)
	defer sp.End()
	var asm coll.RankAssembler
	for {
		f, err := s.recvCollFrame(fab, q)
		if err != nil {
			return nil, err
		}
		if f.H.Op != coll.OpGather || f.H.Tag != tag {
			return nil, fmt.Errorf("core: %v frame tag %d during gather tag %d (collective order diverged)",
				f.H.Op, f.H.Tag, tag)
		}
		if f.End {
			return asm.Finish(f.H, f.Total, fab.size)
		}
		if err := asm.Add(f.H, f.Body); err != nil {
			return nil, err
		}
	}
}

// Reduce receives the tree-combined reduction of every daemon's
// Collective().Reduce contribution. The filter is chosen daemon-side and
// applied at every interior node, so per-link bytes are bounded by the
// combined result — a sum or top-k sample reaches the front end at a
// size independent of the daemon count.
func (s *Session) Reduce() ([]byte, error) {
	fab, err := s.beFab()
	if err != nil {
		return nil, err
	}
	return s.collReduce(fab, fab.collQ, s.nextCollTag())
}

// MWReduce receives the tree-combined reduction of every middleware
// daemon's Collective().Reduce contribution over the MW tree.
func (s *Session) MWReduce() ([]byte, error) {
	fab, err := s.mwFab()
	if err != nil {
		return nil, err
	}
	return s.collReduce(fab, fab.collQ, s.nextMWCollTag())
}

// ReduceTag is Reduce on an explicitly tagged concurrent stream (daemons
// contribute with Collective().ReduceTag under the same tag).
func (s *Session) ReduceTag(tag uint32) ([]byte, error) {
	fab, err := s.beFab()
	if err != nil {
		return nil, err
	}
	return s.tagReduce(fab, tag)
}

// MWReduceTag is ReduceTag over the MW fabric.
func (s *Session) MWReduceTag(tag uint32) ([]byte, error) {
	fab, err := s.mwFab()
	if err != nil {
		return nil, err
	}
	return s.tagReduce(fab, tag)
}

func (s *Session) tagReduce(fab feFabric, tag uint32) ([]byte, error) {
	if err := tagFab(fab, tag); err != nil {
		return nil, err
	}
	defer fab.tags.drop(tag)
	return s.collReduce(fab, fab.tags.q(tag), tag)
}

func (s *Session) collReduce(fab feFabric, q *vtime.Chan[collEvent], tag uint32) ([]byte, error) {
	sp := s.obsRec.Start("fe-reduce", -1)
	defer sp.End()
	var asm coll.RawAssembler
	for {
		f, err := s.recvCollFrame(fab, q)
		if err != nil {
			return nil, err
		}
		// The K-independence invariant of filtered reduction: bytes landing
		// on the FE link are bounded by the combined result, not the fabric.
		s.obsCounter("coll.reduce.fe.rx.bytes").Add(uint64(len(f.Body)))
		if f.H.Op != coll.OpReduce || f.H.Tag != tag {
			return nil, fmt.Errorf("core: %v frame tag %d during reduce tag %d (collective order diverged)",
				f.H.Op, f.H.Tag, tag)
		}
		if f.End {
			return asm.Finish(f.H, f.Total)
		}
		if err := asm.Add(f.H, f.Body); err != nil {
			return nil, err
		}
	}
}

// DaemonCollective is the daemon-side handle of a fabric's collective
// tool-data plane, mirroring the Session methods: what the FE broadcasts
// or scatters every daemon of the fabric receives here, and what every
// daemon gathers or reduces arrives at the FE. Back-end daemons obtain
// it from BackEnd.Collective (paired with Session.Broadcast/...),
// middleware daemons from Middleware.Collective (paired with
// Session.MWBroadcast/...).
type DaemonCollective struct {
	d  *daemonSession
	pl *iccl.Plane
}

// BECollective is the back-end fabric's name for the daemon-side
// collective handle, kept from before the plane became fabric-agnostic.
type BECollective = DaemonCollective

// newDaemonCollective wires the plane: at the master, gather/reduce
// frames bridge onto the FE connection as TypeCollChunk/TypeCollEnd
// messages and broadcast/scatter frames are pulled from the master's FE
// router, which demuxes the connection by stream tag so concurrent
// tagged collectives share it. window is the per-(link, tag) credit
// budget of the tree links' flow control (0 = coll.DefaultWindow);
// the FE hop itself carries no credits — it has exactly
// one consumer draining into per-tag queues and no fan-in skew.
func newDaemonCollective(d *daemonSession, chunkBytes, window int) *DaemonCollective {
	var up iccl.UpFn
	var down iccl.DownFn
	if d.comm.IsMaster() {
		up = func(f coll.Frame) error { return sendFrameOn(d.fe, d.fab.class, f) }
		down = func(tag uint32) (coll.Frame, error) { return d.feRouter().nextColl(tag) }
	}
	return &DaemonCollective{d: d, pl: d.comm.NewPlane(chunkBytes, window, up, down)}
}

// Broadcast receives the front end's next broadcast payload for this
// fabric (every daemon gets the full data).
func (dc *DaemonCollective) Broadcast() ([]byte, error) { return dc.pl.Broadcast() }

// BroadcastTag is Broadcast on an explicitly tagged concurrent stream
// (paired with Session.BroadcastTag under the same tag).
func (dc *DaemonCollective) BroadcastTag(tag uint32) ([]byte, error) { return dc.pl.BroadcastTag(tag) }

// Scatter receives this daemon's part of the front end's next scatter.
func (dc *DaemonCollective) Scatter() ([]byte, error) { return dc.pl.Scatter() }

// ScatterTag is Scatter on an explicitly tagged concurrent stream.
func (dc *DaemonCollective) ScatterTag(tag uint32) ([]byte, error) { return dc.pl.ScatterTag(tag) }

// Gather contributes mine to the front end's next gather on this fabric.
func (dc *DaemonCollective) Gather(mine []byte) error { return dc.pl.Gather(mine) }

// GatherTag is Gather on an explicitly tagged concurrent stream.
func (dc *DaemonCollective) GatherTag(tag uint32, mine []byte) error {
	return dc.pl.GatherTag(tag, mine)
}

// Reduce contributes mine to the front end's next reduce, folded at
// every tree node with the named filter ("concat", "sum", "topk:N", or
// any coll.RegisterFilter registration). All daemons must name the same
// filter.
func (dc *DaemonCollective) Reduce(mine []byte, filter string) error {
	return dc.pl.Reduce(mine, filter)
}

// ReduceTag is Reduce on an explicitly tagged concurrent stream.
func (dc *DaemonCollective) ReduceTag(tag uint32, mine []byte, filter string) error {
	return dc.pl.ReduceTag(tag, mine, filter)
}

// Barrier blocks until every daemon of the fabric has entered it: an
// up-phase of end markers gathers at the tree root, then a release wave
// flows back down (the two-phase crt_barrier shape). The front end is not
// involved.
func (dc *DaemonCollective) Barrier() error { return dc.pl.Barrier() }

// BarrierTag is Barrier on an explicitly tagged concurrent stream.
func (dc *DaemonCollective) BarrierTag(tag uint32) error { return dc.pl.BarrierTag(tag) }

// AllGather contributes mine and returns every daemon's contribution
// indexed by rank: a gather up-phase into the tree root, then the
// assembled rank table redistributed down in bounded chunks.
func (dc *DaemonCollective) AllGather(mine []byte) ([][]byte, error) { return dc.pl.AllGather(mine) }

// AllGatherTag is AllGather on an explicitly tagged concurrent stream.
func (dc *DaemonCollective) AllGatherTag(tag uint32, mine []byte) ([][]byte, error) {
	return dc.pl.AllGatherTag(tag, mine)
}

// AllReduce contributes mine to a reduction with the named filter and
// returns the combined result on every daemon: the Reduce up-phase folds
// into the root, whose final accumulator is redistributed down the tree.
func (dc *DaemonCollective) AllReduce(mine []byte, filter string) ([]byte, error) {
	return dc.pl.AllReduce(mine, filter)
}

// AllReduceTag is AllReduce on an explicitly tagged concurrent stream.
func (dc *DaemonCollective) AllReduceTag(tag uint32, mine []byte, filter string) ([]byte, error) {
	return dc.pl.AllReduceTag(tag, mine, filter)
}
