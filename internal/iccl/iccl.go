// Package iccl implements LaunchMON's Internal Collective Communication
// Layer (paper §3.3): the minimal inter-daemon communication substrate
// used to propagate and gather launch/setup information. Daemons bootstrap
// a k-ary tree over the RM-provided node list (their rank and the list
// arrive in the environment the RM sets when spawning them) and then
// perform simple barriers, broadcasts, gathers and scatters.
//
// ICCL stays deliberately minimal: Comm carries those four collectives
// plus FoldUp (the associative fold the observability harvest rides), and
// Plane (collective.go) streams tool data over the same tree in chunked,
// tagged, credit-windowed form. It is not a general TBŌN replacement
// (tools needing scalable filtering/reduction should layer MRNet-like
// infrastructure — internal/tbon — on top), but it is enough to launch
// daemons and hand tools a rudimentary coordination fabric.
package iccl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
	"launchmon/internal/obs"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// Collective opcodes on tree links.
const (
	opJoin      = 1 // child → parent: rank announcement at bootstrap
	opReady     = 2 // child → parent: subtree fully connected (count)
	opBarrier   = 3
	opRelease   = 4
	opBcast     = 5
	opGather    = 6
	opScatter   = 7
	opHeartbeat = 12 // child → parent: health beat piggybacked on the tree link
	opFold      = 13 // child → parent: combined blob of a FoldUp tree reduction
	opCredit    = 14 // receiver → sender: flow-control credits for a tagged stream
	opStatus    = 15 // child → parent, on failure only: the rank lost, the phase, the cause
)

// phases names what a rank awaits each opcode for, in errors and status frames.
var phases = [...]string{opJoin: "join", opReady: "ready", opBarrier: "barrier", opRelease: "barrier",
	opBcast: "broadcast", opGather: "gather", opScatter: "scatter", opFold: "fold"}

const maxStatus = 256 // the bound on a status frame's phase and cause, in bytes

// The tree's cost model. PerMsgCost is the CPU charge for handling one
// tree message. DialRetry and dialAttempts bound the child→parent connect
// loop: children may come up long before their parent when the RM is still
// spawning thousands of sibling daemons, so the window is 30 s.
const (
	PerMsgCost   = 150 * time.Microsecond
	DialRetry    = 5 * time.Millisecond
	dialAttempts = 6000
)

// Config describes one daemon's place in the ICCL tree.
type Config struct {
	Rank     int      // this daemon's rank (0 = master)
	Size     int      // total daemons
	Fanout   int      // tree fanout; 0 means flat (1-deep: everyone under rank 0)
	Nodelist []string // node names indexed by rank
	Port     int      // per-session TCP port each daemon listens on

	// Metrics receives link-level counters (iccl.tx/rx frames and bytes,
	// dial retries) when set; nil disables instrumentation at zero cost.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Fanout <= 0 {
		c.Fanout = c.Size // flat: rank 0 parents everyone
	}
	return c
}

// Comm is a bootstrapped ICCL communicator. Every daemon holds one for the
// life of its session, so it keeps of its Config only the fanout, and its
// metric handles behind one pointer that is nil while obs is off.
type Comm struct {
	p      *cluster.Proc
	rank   int
	size   int
	fanout int
	name   string // a front end's plane's: what its errors call it (who)

	parent   *simnet.Conn     // nil at root
	children []*simnet.Conn   // indexed by child slot
	l        *simnet.Listener // where children join; closed once bootstrap returns

	dmMu    sync.Mutex                   // serializes demuxLinks
	demuxes atomic.Pointer[[]*linkDemux] // published once by demuxLinks: the parent's, then the children's in slot order

	obs *commObs // nil = obs off
}

// commObs is a communicator's metric handles, interned once at bootstrap.
type commObs struct {
	txFrames, txBytes, rxFrames, rxBytes *obs.Counter
	collTxFrames, collTxBytes            *obs.Counter
	creditTxFrames                       *obs.Counter
	collDepthMax, collBytesMax           *obs.Gauge
}

// bindMetrics interns the communicator's counter handles from reg, when
// there is one.
func (c *Comm) bindMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.obs = &commObs{
		txFrames:       reg.Counter("iccl.tx.frames"),
		txBytes:        reg.Counter("iccl.tx.bytes"),
		rxFrames:       reg.Counter("iccl.rx.frames"),
		rxBytes:        reg.Counter("iccl.rx.bytes"),
		collTxFrames:   reg.Counter("coll.tx.frames"),
		collTxBytes:    reg.Counter("coll.tx.bytes"),
		creditTxFrames: reg.Counter("coll.credit.tx.frames"),
		collDepthMax:   reg.Gauge("coll.queue.depth.max"),
		collBytesMax:   reg.Gauge("coll.link.bytes.max"),
	}
}

// newFrame starts a tree-link message in one buffer of exactly its wire
// size: the length prefix and the opcode, behind which the caller appends
// the n-byte body. The finished message is handed to the network as is
// (send, lmonp.SendFrame) and is immutable from then on — which is what
// lets one buffer go out on every child link.
func newFrame(op uint32, n int) []byte {
	return lmonp.AppendUint32(lmonp.NewFrame(4+n), op)
}

// send puts one tree-link message (newFrame) on conn, counting it when
// metrics are bound. All collective sends go through here or through
// planeOp.sendOn so wire-byte invariants (bench assertions on O(K) claims)
// observe every frame.
func (c *Comm) send(conn *simnet.Conn, msg []byte) error {
	if m := c.obs; m != nil {
		m.txFrames.Inc()
		m.txBytes.Add(uint64(len(msg) - 4))
	}
	return lmonp.SendFrame(conn, msg)
}

// Errors from the collective layer.
var (
	errBootstrap = errors.New("iccl: bootstrap failed")
	errProtocol  = errors.New("iccl: protocol violation")
	// ErrSevered reports a demultiplexed tree link whose peer died (or
	// delivered garbage): the link demux failed every queue of the link.
	ErrSevered = errors.New("iccl: link severed")
)

// peerError pins a failure on a rank: the peer whose link failed in a phase,
// or — up, from a status frame — the rank a rank below lost, named in its text.
type peerError struct {
	rank  int
	phase string
	err   error
	up    bool
}

func (e *peerError) Error() string {
	if e.up {
		return fmt.Sprintf("rank %d (%s): %v", e.rank, e.phase, e.err)
	}
	return e.err.Error()
}

func (e *peerError) Unwrap() error { return e.err }

// Link is one shared tree connection exposed for heartbeat piggybacking
// (health link reuse): Send ships one heartbeat payload to the peer, and
// Recv yields heartbeat payloads from the peer, closing when the
// connection dies. Collective traffic keeps flowing on the same conn.
type Link struct {
	Rank int                        // peer daemon rank
	Send func(payload []byte) error // ship one heartbeat to the peer
	Recv *vtime.Chan[[]byte]        // heartbeats from the peer
}

// ShareLinks demultiplexes every tree connection (demuxLinks) and returns
// heartbeat handles: the parent link (nil at the root) and one link per
// connected child. Call it only after all one-shot bootstrap traffic (the
// session seed in particular) has drained. Close still tears the
// connections down.
func (c *Comm) ShareLinks() (parent *Link, children []*Link) {
	c.demuxLinks()
	mklink := func(slot int) *Link {
		conn, d := c.conn(slot), c.demux(slot)
		return &Link{
			Rank: c.peerRank(slot),
			Send: func(payload []byte) error {
				return lmonp.SendFrame(conn, append(newFrame(opHeartbeat, len(payload)), payload...))
			},
			Recv: d.queue(&d.hb),
		}
	}
	if c.parent != nil {
		parent = mklink(above)
	}
	children = make([]*Link, len(c.children))
	for slot := range c.children {
		children[slot] = mklink(slot)
	}
	return parent, children
}

// conn is the tree connection a slot names: a child's, or above the parent's.
func (c *Comm) conn(slot int) *simnet.Conn {
	if slot == above {
		return c.parent
	}
	return c.children[slot]
}

// childRank is the rank of the child in slot, by the tree's heap layout.
func (c *Comm) childRank(slot int) int { return c.rank*c.fanout + 1 + slot }

// who names this end of the plane in errors: its rank, or the front end.
func (c *Comm) who() string {
	if c.name != "" {
		return c.name
	}
	return "rank " + strconv.Itoa(c.rank)
}

// ctlFrame renders a bootstrap control message (join, ready): the opcode
// plus one value.
func ctlFrame(op, v uint32) []byte {
	return lmonp.AppendUint32(newFrame(op, 4), v)
}

// parseStatus decodes a status frame, opcode first, into the failure it
// relays: a rank of the tree, and phase and cause within maxStatus bytes.
func (c *Comm) parseStatus(raw []byte) (*peerError, error) {
	rd := lmonp.NewReader(raw)
	rd.Uint32() // the opcode, which the caller dispatched on
	rank, phase, cause := rd.Uint32(), rd.String(), rd.String()
	switch {
	case rd.Err() != nil:
		return nil, rd.Err()
	case len(phase) > maxStatus || len(cause) > maxStatus:
		return nil, fmt.Errorf("%w: status text of %d and %d B, over %d", errProtocol, len(phase), len(cause), maxStatus)
	case int64(rank) >= int64(c.size):
		return nil, fmt.Errorf("%w: status names rank %d of %d", errProtocol, rank, c.size)
	}
	return &peerError{rank: int(rank), phase: phase, err: errors.New(cause), up: true}, nil
}

// countRx tallies one received tree frame (both of a walk's read modes).
func (c *Comm) countRx(raw []byte) {
	if m := c.obs; m != nil {
		m.rxFrames.Inc()
		m.rxBytes.Add(uint64(len(raw)))
	}
}

// Parent returns the parent rank of r in a k-ary tree (r>0).
func Parent(r, fanout int) int { return (r - 1) / fanout }

// childCount is len(Children(r, size, fanout)), without the list.
func childCount(r, size, fanout int) int {
	return max(0, min(r*fanout+fanout, size-1)-r*fanout)
}

// Children returns the child ranks of r in a k-ary tree of the given size.
func Children(r, size, fanout int) []int {
	var out []int
	for c := r*fanout + 1; c <= r*fanout+fanout && c < size; c++ {
		out = append(out, c)
	}
	return out
}

// SubtreeRanks returns all ranks in r's subtree (including r), ascending.
func SubtreeRanks(r, size, fanout int) []int {
	out := []int{r}
	for i := 0; i < len(out); i++ {
		out = append(out, Children(out[i], size, fanout)...)
	}
	// BFS order from a heap layout is already ascending within levels but
	// not globally; sort for a stable contract.
	slices.Sort(out)
	return out
}

// subtreeSlot returns which of self's n child slots roots the subtree
// holding rank r, or -1 when r is not below self. In the heap layout
// self's children are self·fanout+1… in slot order, so walking r's
// ancestor chain up to self's level names the slot with no lookup table.
func subtreeSlot(self, fanout, n, r int) int {
	for r > self {
		p := Parent(r, fanout)
		if p == self {
			if slot := r - (self*fanout + 1); slot < n {
				return slot
			}
			return -1
		}
		r = p
	}
	return -1
}

// Bootstrap connects the calling daemon into the tree and returns once the
// entire subtree below it (and, at the root, the whole tree) is connected.
// The root's return therefore marks the fabric-setup completion (event e9
// of the paper's critical path). The rank is one Forming record on the
// scheduler, and the caller waits on it once.
func Bootstrap(p *cluster.Proc, cfg Config) (*Comm, error) {
	return NewForming(p, cfg, nil, nil, nil).Run(nil)
}

// watchParent makes anything on the parent link end the forming tree —
// nothing else comes down it before the rank's ready goes up — or, formed,
// hands the link back.
func (c *Comm) watchParent(watch bool) {
	switch {
	case c.parent == nil:
	case watch:
		c.parent.Handle(func([]byte, error) { c.Close() })
	default:
		c.parent.Unhandle()
	}
}

// waitingOn names in err the child subtrees a rank still waits on — no
// join, or from slot from on no op frame delivered — by their first 8 ranks
// and a count.
func (c *Comm) waitingOn(err error, from int, op uint32) error {
	var ranks []int
	for slot, conn := range c.children {
		if conn == nil || slot >= from && !delivered(conn, op) {
			ranks = append(ranks, SubtreeRanks(c.childRank(slot), c.size, c.fanout)...)
		}
	}
	if len(ranks) == 0 {
		return err
	}
	slices.Sort(ranks)
	names := strings.Trim(strings.ReplaceAll(fmt.Sprint(ranks[:min(8, len(ranks))]), " ", ", "), "[]")
	return fmt.Errorf("%w; waiting on rank %s (%d of %d ranks)", err, names, len(ranks), c.size)
}

// delivered reports whether a child's op frame waits unread on its link,
// taking it: the failing rank reads the link no more.
func delivered(conn *simnet.Conn, op uint32) bool {
	msg, ok := conn.TryRecvMessage()
	if !ok {
		return false
	}
	raw, err := lmonp.FrameFromMessage(msg)
	return err == nil && len(raw) >= 4 && binary.BigEndian.Uint32(raw) == op
}

// Abort ends a rank whose bootstrap or ready gather failed with err: it sends
// its parent one status frame — a failure relayed from below verbatim, else
// the peer err pins it on, else itself, with phase and cause — and tears
// down what it formed (Close), so ranks blocked on its subtree see why.
func (c *Comm) Abort(err error) {
	if c.parent != nil {
		pe := &peerError{rank: c.rank, phase: "init", err: err}
		errors.As(err, &pe)
		cause := pe.err.Error()
		cause = cause[:min(len(cause), maxStatus)]
		msg := lmonp.AppendUint32(newFrame(opStatus, 12+len(pe.phase)+len(cause)), uint32(pe.rank))
		c.send(c.parent, lmonp.AppendString(lmonp.AppendString(msg, pe.phase), cause))
	}
	c.Close()
}

// Rank returns this daemon's rank (0 is the master).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of daemons in the communicator.
func (c *Comm) Size() int { return c.size }

// IsMaster reports whether this daemon is rank 0.
func (c *Comm) IsMaster() bool { return c.rank == 0 }

// Close tears down the tree links (those a failed bootstrap got as far as
// forming) and the listener; from a scheduler callback it fails a forming
// rank's bootstrap.
func (c *Comm) Close() { c.shut(false) }

// Sever ends them as the rank's host dying would: its process was killed,
// and its peers see ErrPeerDead.
func (c *Comm) Sever() { c.shut(true) }

func (c *Comm) shut(sever bool) {
	if c.l != nil {
		c.l.Close()
	}
	for slot := above; slot < len(c.children); slot++ {
		switch conn := c.conn(slot); {
		case conn == nil:
		case sever:
			conn.Sever()
		default:
			conn.Close()
		}
	}
}

// opBody checks a bootstrap-era tree frame read with err: its body — at
// least a join's or ready's one value — or the error, which the reader pins
// on the peer (pinOn): a failure relayed from below comes back as it came.
func (c *Comm) opBody(want uint32, frame []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	rd := lmonp.NewReader(frame)
	switch op := rd.Uint32(); {
	case rd.Err() != nil:
		return nil, rd.Err()
	case op == opStatus:
		st, err := c.parseStatus(frame)
		if err != nil {
			return nil, err
		}
		return nil, st
	case op != want:
		return nil, fmt.Errorf("%w: got op %d want %d", errProtocol, op, want)
	case (want == opJoin || want == opReady) && len(frame) < 8:
		return nil, fmt.Errorf("%w: %s frame of %d B", errProtocol, phases[want], len(frame))
	}
	return frame[4:], nil
}

// pinOn names the peer rank in err, met on its link in op's phase, so every
// collective and bootstrap says which link failed — unless err is a failure
// relayed from below, the deepest cause, which goes on as it came.
func pinOn(rank int, op uint32, err error) error {
	if pe := (*peerError)(nil); errors.As(err, &pe) && pe.up {
		return err
	}
	return fmt.Errorf("rank %d: %w", rank, &peerError{rank: rank, phase: phases[op], err: err})
}

// sendOp puts one bootstrap-era collective frame on the link a slot names,
// its errors pinned on the peer.
func (c *Comm) sendOp(slot int, msg []byte) error {
	if err := c.send(c.conn(slot), msg); err != nil {
		return pinOn(c.peerRank(slot), binary.BigEndian.Uint32(msg[4:]), err)
	}
	return nil
}

// peerRank is the rank at the other end of the link a slot names.
func (c *Comm) peerRank(slot int) int {
	if slot == above {
		return Parent(c.rank, c.fanout)
	}
	return c.childRank(slot)
}

// Barrier blocks until every daemon has entered it: an empty gather up, then
// a release down. Each of Comm's collectives is one walk (walk.go) the
// caller's goroutine starts and waits on once, on links read directly or
// demultiplexed.
func (c *Comm) Barrier() error {
	_, err := c.newWalk(opBarrier, nil).wait()
	return err
}

// Broadcast distributes buf from the master to every daemon; every caller
// returns the broadcast bytes — the master buf unchanged, every other
// daemon a copy of its own.
func (c *Comm) Broadcast(buf []byte) ([]byte, error) { return c.newWalk(opBcast, buf).wait() }

// bcastDown sends buf on to every child: the onward message is built once
// and that one buffer goes out on every child link.
func (c *Comm) bcastDown(buf []byte) error {
	if len(c.children) == 0 {
		return nil
	}
	return c.sendDown(lmonp.AppendBytes(newFrame(opBcast, 4+len(buf)), buf))
}

// sendDown puts msg on every child link, in slot order.
func (c *Comm) sendDown(msg []byte) error {
	for slot := range c.children {
		if err := c.sendOp(slot, msg); err != nil {
			return err
		}
	}
	return nil
}

// Gather collects one byte slice from every daemon; the master receives
// them indexed by rank, other daemons receive nil. Gather and Scatter
// frames are the opcode plus a coll entry list in rank order; decoded
// blobs alias the frame they arrived in.
func (c *Comm) Gather(mine []byte) ([][]byte, error) {
	w := c.newWalk(opGather, nil)
	w.entries = []coll.Entry{{Rank: c.rank, Blob: mine}}
	_, err := w.wait()
	return w.all, err
}

// gathered ends a gather with this subtree's contributions — this rank's
// and its child subtrees' entry lists: sorted into rank order, they go up
// to the parent, or at the root become every rank's blob by rank.
func (c *Comm) gathered(entries []coll.Entry) ([][]byte, error) {
	slices.SortFunc(entries, func(a, b coll.Entry) int { return a.Rank - b.Rank })
	if c.parent != nil {
		return nil, c.sendOp(above, entriesFrame(opGather, entries))
	}
	if len(entries) != c.size {
		return nil, fmt.Errorf("%w: gathered %d of %d contributions", errProtocol, len(entries), c.size)
	}
	out := make([][]byte, c.size)
	for i, e := range entries {
		if e.Rank != i {
			return nil, fmt.Errorf("%w: gathered rank %d where rank %d belongs", errProtocol, e.Rank, i)
		}
		out[i] = e.Blob
	}
	return out, nil
}

// entriesFrame renders a Gather or Scatter message: the opcode plus the
// entry list.
func entriesFrame(op uint32, entries []coll.Entry) []byte {
	return coll.AppendEntries(newFrame(op, coll.EntriesSize(entries)), entries)
}

// FoldUp reduces one byte blob per daemon toward the root with the given
// combine function (acc is nil on the first call; combine must be
// associative and commutative — children fold in connection order, which
// is not rank order). Unlike Gather, interior daemons forward one
// combined blob per link, so the reduction stays O(blob) per link at any
// tree size — this is how the observability plane harvests per-daemon
// metric snapshots without building an O(K) concatenation anywhere. The
// root returns the full fold; every other daemon returns nil.
func (c *Comm) FoldUp(mine []byte, combine func(acc, next []byte) ([]byte, error)) ([]byte, error) {
	acc, err := combine(nil, mine)
	if err != nil {
		return nil, err
	}
	w := c.newWalk(opFold, acc)
	w.combine = combine
	return w.wait()
}

// foldStep combines the blob a fold frame's body carries into acc.
func foldStep(acc, body []byte, combine func(acc, next []byte) ([]byte, error)) ([]byte, error) {
	rd := lmonp.NewReader(body)
	blob := rd.Bytes()
	if err := rd.Err(); err != nil {
		return nil, err
	}
	return combine(acc, blob)
}

// Scatter delivers parts[rank] to each daemon; only the master's parts
// argument is used, and it must have exactly Size entries.
func (c *Comm) Scatter(parts [][]byte) ([]byte, error) {
	w := c.newWalk(opScatter, nil)
	if c.parent == nil {
		if len(parts) != c.size {
			return nil, fmt.Errorf("%w: scatter needs %d parts, got %d", errProtocol, c.size, len(parts))
		}
		w.entries = make([]coll.Entry, len(parts))
		for rk, p := range parts {
			w.entries[rk] = coll.Entry{Rank: rk, Blob: p}
		}
	}
	return w.wait()
}
