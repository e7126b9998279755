// Package iccl implements LaunchMON's Internal Collective Communication
// Layer (paper §3.3): the minimal inter-daemon communication substrate
// used to propagate and gather launch/setup information. Daemons bootstrap
// a k-ary tree over the RM-provided node list (their rank and the list
// arrive in the environment the RM sets when spawning them) and then
// perform simple barriers, broadcasts, gathers and scatters.
//
// ICCL deliberately provides only these four collectives: it is not a
// general TBŌN replacement (tools needing scalable filtering/reduction
// should layer MRNet-like infrastructure — internal/tbon — on top), but it
// is enough to launch daemons and hand tools a rudimentary coordination
// fabric.
package iccl

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"launchmon/internal/cluster"
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
)

// Config describes one daemon's place in the ICCL tree.
type Config struct {
	Rank     int      // this daemon's rank (0 = master)
	Size     int      // total daemons
	Fanout   int      // tree fanout; 0 means flat (1-deep: everyone under rank 0)
	Nodelist []string // node names indexed by rank
	Port     int      // per-session TCP port each daemon listens on

	// PerMsgCost is the CPU charge for handling one tree message
	// (default 150us).
	PerMsgCost time.Duration
	// DialRetry and DialAttempts bound the child→parent connect loop
	// (parents may not be listening yet when a child daemon starts).
	DialRetry    time.Duration
	DialAttempts int

	// JoinTimeout bounds how long bootstrap waits for each successive
	// child join (and subtree-ready report) once this daemon is accepting.
	// Zero disables the deadline — the default, because under a healthy RM
	// children may legitimately join minutes of virtual time apart while a
	// large spawn wave sweeps the machine. Sessions running the failure
	// detector plumb its Period×(Miss+1) bound here, so a child that dies
	// before ever dialing its parent surfaces as a wrapped ErrBootstrap
	// subtree error within the detector's own bound instead of hanging the
	// forming tree.
	JoinTimeout time.Duration

	// Metrics receives link-level counters (iccl.tx/rx frames and bytes,
	// dial retries) when set; nil disables instrumentation at zero cost.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Fanout <= 0 {
		c.Fanout = c.Size // flat: rank 0 parents everyone
	}
	if c.PerMsgCost == 0 {
		c.PerMsgCost = 150 * time.Microsecond
	}
	if c.DialRetry == 0 {
		c.DialRetry = 5 * time.Millisecond
	}
	if c.DialAttempts == 0 {
		// Children may come up long before their parent when the RM is
		// still spawning thousands of sibling daemons; allow a 30s window.
		c.DialAttempts = 6000
	}
	return c
}

// Comm is a bootstrapped ICCL communicator.
type Comm struct {
	p    *cluster.Proc
	cfg  Config
	rank int
	size int

	parent   *simnet.Conn   // nil at root
	children []*simnet.Conn // indexed by child slot
	childRk  []int          // rank of each child slot

	dmMu  sync.Mutex
	demux map[*simnet.Conn]*linkDemux // set by demuxLinks, nil before

	// Metric handles, interned once at bootstrap (nil = obs off; all
	// methods on nil handles no-op).
	txFrames, txBytes, rxFrames, rxBytes *obs.Counter
	collTxFrames, collTxBytes            *obs.Counter
	creditTxFrames                       *obs.Counter
	collDepthMax, collBytesMax           *obs.Gauge
}

// bindMetrics interns the communicator's counter handles from cfg.Metrics.
func (c *Comm) bindMetrics() {
	reg := c.cfg.Metrics
	c.txFrames = reg.Counter("iccl.tx.frames")
	c.txBytes = reg.Counter("iccl.tx.bytes")
	c.rxFrames = reg.Counter("iccl.rx.frames")
	c.rxBytes = reg.Counter("iccl.rx.bytes")
	c.collTxFrames = reg.Counter("coll.tx.frames")
	c.collTxBytes = reg.Counter("coll.tx.bytes")
	c.creditTxFrames = reg.Counter("coll.credit.tx.frames")
	c.collDepthMax = reg.Gauge("coll.queue.depth.max")
	c.collBytesMax = reg.Gauge("coll.link.bytes.max")
}

// send writes one tree frame, counting it when metrics are bound. All
// collective sends go through here so wire-byte invariants (bench
// assertions on O(K) claims) observe every frame.
func (c *Comm) send(conn *simnet.Conn, frame []byte) error {
	c.txFrames.Inc()
	c.txBytes.Add(uint64(len(frame)))
	return lmonp.WriteFrame(conn, frame)
}

// Errors from the collective layer.
var (
	ErrBootstrap = errors.New("iccl: bootstrap failed")
	ErrProtocol  = errors.New("iccl: protocol violation")
	// ErrSevered reports a demultiplexed tree link whose peer died (or
	// delivered garbage): the link demux failed every queue of the link.
	ErrSevered = errors.New("iccl: link severed")
)

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
	mklink := func(conn *simnet.Conn, rank int) *Link {
		return &Link{
			Rank: rank,
			Send: func(payload []byte) error {
				b := lmonp.AppendUint32(make([]byte, 0, 4+len(payload)), opHeartbeat)
				b = append(b, payload...)
				return lmonp.WriteFrame(conn, b)
			},
			Recv: c.demuxFor(conn).hb,
		}
	}
	if c.parent != nil {
		parent = mklink(c.parent, Parent(c.rank, c.cfg.Fanout))
	}
	children = make([]*Link, len(c.children))
	for slot, conn := range c.children {
		children[slot] = mklink(conn, c.childRk[slot])
	}
	return parent, children
}

// recvRaw reads one raw non-plane frame from a tree connection: from the
// link demux's base queue once it owns the connection (demuxLinks),
// directly off the connection before. The ICCL per-message cost is
// charged exactly once either way: here on the direct path, by the
// demux's framer otherwise.
func (c *Comm) recvRaw(conn *simnet.Conn) ([]byte, error) {
	if d := c.demuxFor(conn); d != nil {
		raw, ok := d.base.Recv()
		if !ok {
			return nil, d.tags.Err()
		}
		return raw, nil
	}
	raw, err := lmonp.ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	c.p.Compute(c.cfg.PerMsgCost)
	c.countRx(raw)
	return raw, nil
}

// countRx tallies one received tree frame (both recvRaw modes).
func (c *Comm) countRx(raw []byte) {
	c.rxFrames.Inc()
	c.rxBytes.Add(uint64(len(raw)))
}

// Parent returns the parent rank of r in a k-ary tree (r>0).
func Parent(r, fanout int) int { return (r - 1) / fanout }

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
	sortInts(out)
	return out
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Bootstrap connects the calling daemon into the tree and blocks until the
// entire subtree below it (and, at the root, the whole tree) is connected.
// The root's return therefore marks the fabric-setup completion (event e9
// of the paper's critical path).
func Bootstrap(p *cluster.Proc, cfg Config) (*Comm, error) {
	cfg = cfg.withDefaults()
	return bootstrap(p, &cfg, nil, nil)
}

// bootstrap is the shared tree-formation engine. The hooks expose links as
// soon as they carry traffic — onParent right after the join is sent,
// onChild right after a child's join is validated — so BootstrapSeed can
// stream the session seed through the still-forming tree. Both may be nil.
// cfg must already have its defaults applied.
//
// The phases live in separate methods (dialJoin, acceptChildren,
// readyWave) on purpose: every daemon goroutine parks through this path,
// and each phase's working set — dial address, join/ready frames, reader
// state — dies with its frame instead of widening one long-lived frame
// under which the whole launch then runs. Keeping the resident chain
// shallow here is what holds a parked daemon inside the runtime's initial
// stack segments; at a million daemons each extra segment doubling is
// gigabytes of simulator RSS.
func bootstrap(p *cluster.Proc, cfg *Config, onParent func(*simnet.Conn), onChild func(slot int, conn *simnet.Conn)) (*Comm, error) {
	if cfg.Size <= 0 || cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("%w: bad rank/size %d/%d", ErrBootstrap, cfg.Rank, cfg.Size)
	}
	if len(cfg.Nodelist) != cfg.Size {
		return nil, fmt.Errorf("%w: nodelist has %d entries for size %d", ErrBootstrap, len(cfg.Nodelist), cfg.Size)
	}
	c := &Comm{p: p, cfg: *cfg, rank: cfg.Rank, size: cfg.Size}
	c.bindMetrics()
	kids := Children(cfg.Rank, cfg.Size, cfg.Fanout)

	var l *simnet.Listener
	if len(kids) > 0 {
		var err error
		l, err = p.Host().Listen(cfg.Port)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBootstrap, err)
		}
		defer l.Close()
	}

	if cfg.Rank > 0 {
		if err := c.dialJoin(p, cfg, onParent); err != nil {
			return nil, err
		}
	}
	if err := c.acceptChildren(p, cfg, l, kids, onChild); err != nil {
		return nil, err
	}
	if err := c.readyWave(p, cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// dialJoin connects upward and announces this rank to its parent
// (children race their parents coming up; retry).
func (c *Comm) dialJoin(p *cluster.Proc, cfg *Config, onParent func(*simnet.Conn)) error {
	parentRank := Parent(cfg.Rank, cfg.Fanout)
	// Deterministic sub-microsecond dial skew: siblings spawned at the
	// same virtual instant would otherwise tie their joins at the
	// parent's listener, and the accept order of tied joins is a host
	// race. Since the parent's per-join handling cost ladders whatever
	// follows a join (the seed catch-up of BootstrapSeed in particular),
	// that race would leak host scheduling into virtual time. One
	// nanosecond per sibling slot breaks ties in rank order at no
	// measurable cost (≤ fanout ns).
	slot := cfg.Rank - (parentRank*cfg.Fanout + 1)
	if slot > 0 {
		p.Sim().Sleep(time.Duration(slot))
	}
	addr := simnet.Addr{Host: cfg.Nodelist[parentRank], Port: cfg.Port}
	retries := cfg.Metrics.Counter("iccl.dial.retries")
	var conn *simnet.Conn
	var err error
	for attempt := 0; attempt < cfg.DialAttempts; attempt++ {
		conn, err = p.Host().Dial(addr)
		if err == nil {
			break
		}
		retries.Inc()
		p.Sim().Sleep(cfg.DialRetry)
	}
	if err != nil {
		return fmt.Errorf("%w: dialing parent %d: %v", ErrBootstrap, parentRank, err)
	}
	c.parent = conn
	join := lmonp.AppendUint32(nil, opJoin)
	join = lmonp.AppendUint32(join, uint32(cfg.Rank))
	if err := c.send(conn, join); err != nil {
		return fmt.Errorf("%w: join: %v", ErrBootstrap, err)
	}
	if onParent != nil {
		onParent(conn)
	}
	return nil
}

// acceptChildren accepts and validates one join per expected child.
func (c *Comm) acceptChildren(p *cluster.Proc, cfg *Config, l *simnet.Listener, kids []int, onChild func(slot int, conn *simnet.Conn)) error {
	c.children = make([]*simnet.Conn, len(kids))
	c.childRk = append([]int(nil), kids...)
	for range kids {
		var conn *simnet.Conn
		var err error
		if cfg.JoinTimeout > 0 {
			conn, err = l.AcceptTimeout(cfg.JoinTimeout)
		} else {
			conn, err = l.Accept()
		}
		if err != nil {
			return c.failBootstrap(fmt.Errorf("%w: accept: %v", ErrBootstrap, err))
		}
		frame, err := lmonp.ReadFrame(conn)
		if err != nil {
			return c.failBootstrap(fmt.Errorf("%w: join frame: %v", ErrBootstrap, err))
		}
		p.Compute(cfg.PerMsgCost)
		c.countRx(frame)
		rd := lmonp.NewReader(frame)
		op, _ := rd.Uint32()
		rk32, err := rd.Uint32()
		if err != nil || op != opJoin {
			return c.failBootstrap(fmt.Errorf("%w: bad join", ErrBootstrap))
		}
		slot := -1
		for i, k := range kids {
			if k == int(rk32) {
				slot = i
			}
		}
		if slot < 0 || c.children[slot] != nil {
			return c.failBootstrap(fmt.Errorf("%w: unexpected child rank %d", ErrBootstrap, rk32))
		}
		c.children[slot] = conn
		if onChild != nil {
			onChild(slot, conn)
		}
	}
	return nil
}

// readyWave waits for all children to report their subtree connected,
// then reports upward (the root instead checks the full count).
func (c *Comm) readyWave(p *cluster.Proc, cfg *Config) error {
	total := 1
	for _, conn := range c.children {
		var frame []byte
		var err error
		if cfg.JoinTimeout > 0 {
			frame, err = readFrameTimeout(conn, cfg.JoinTimeout)
		} else {
			frame, err = lmonp.ReadFrame(conn)
		}
		if err != nil {
			return c.failBootstrap(fmt.Errorf("%w: ready: %v", ErrBootstrap, err))
		}
		p.Compute(cfg.PerMsgCost)
		c.countRx(frame)
		rd := lmonp.NewReader(frame)
		op, _ := rd.Uint32()
		n32, err := rd.Uint32()
		if err != nil || op != opReady {
			return c.failBootstrap(fmt.Errorf("%w: bad ready", ErrBootstrap))
		}
		total += int(n32)
	}
	if c.parent != nil {
		rdy := lmonp.AppendUint32(nil, opReady)
		rdy = lmonp.AppendUint32(rdy, uint32(total))
		if err := c.send(c.parent, rdy); err != nil {
			return c.failBootstrap(fmt.Errorf("%w: ready up: %v", ErrBootstrap, err))
		}
	} else if total != cfg.Size {
		return c.failBootstrap(fmt.Errorf("%w: connected %d of %d daemons", ErrBootstrap, total, cfg.Size))
	}
	return nil
}

// readFrameTimeout reads one length-prefixed tree frame with a
// virtual-time deadline. Tree frames are written one per network message
// (lmonp.WriteFrame is a single Write call), so a whole-message timed
// receive unwraps to exactly one frame.
func readFrameTimeout(conn *simnet.Conn, d time.Duration) ([]byte, error) {
	msg, err := conn.RecvMessageTimeout(d)
	if err != nil {
		return nil, err
	}
	return lmonp.FrameFromMessage(msg)
}

// failBootstrap tears down whatever part of the tree this daemon already
// formed — the parent link and any accepted children — so ranks blocked on
// this subtree observe the failure (their reads end) instead of waiting
// forever on a silently absent branch. It returns err unchanged for use in
// bootstrap's error returns.
func (c *Comm) failBootstrap(err error) error {
	if c.parent != nil {
		c.parent.Close()
	}
	for _, conn := range c.children {
		if conn != nil {
			conn.Close()
		}
	}
	return err
}

// Rank returns this daemon's rank (0 is the master).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of daemons in the communicator.
func (c *Comm) Size() int { return c.size }

// IsMaster reports whether this daemon is rank 0.
func (c *Comm) IsMaster() bool { return c.rank == 0 }

// Close tears down the tree links.
func (c *Comm) Close() {
	if c.parent != nil {
		c.parent.Close()
	}
	for _, conn := range c.children {
		conn.Close()
	}
}

func (c *Comm) recvOp(conn *simnet.Conn, want uint32) (*lmonp.Reader, error) {
	frame, err := c.recvRaw(conn)
	if err != nil {
		return nil, err
	}
	rd := lmonp.NewReader(frame)
	op, err := rd.Uint32()
	if err != nil {
		return nil, err
	}
	if op != want {
		return nil, fmt.Errorf("%w: got op %d want %d", ErrProtocol, op, want)
	}
	return rd, nil
}

// Barrier blocks until every daemon has entered it.
func (c *Comm) Barrier() error {
	for _, conn := range c.children {
		if _, err := c.recvOp(conn, opBarrier); err != nil {
			return err
		}
	}
	if c.parent != nil {
		if err := c.send(c.parent, lmonp.AppendUint32(nil, opBarrier)); err != nil {
			return err
		}
		if _, err := c.recvOp(c.parent, opRelease); err != nil {
			return err
		}
	}
	rel := lmonp.AppendUint32(nil, opRelease)
	for _, conn := range c.children {
		if err := c.send(conn, rel); err != nil {
			return err
		}
	}
	return nil
}

// Broadcast distributes buf from the master to every daemon; every caller
// returns the broadcast bytes (the master returns buf unchanged).
func (c *Comm) Broadcast(buf []byte) ([]byte, error) {
	if c.parent != nil {
		rd, err := c.recvOp(c.parent, opBcast)
		if err != nil {
			return nil, err
		}
		buf, err = rd.Bytes()
		if err != nil {
			return nil, err
		}
		buf = append([]byte(nil), buf...)
	}
	frame := lmonp.AppendUint32(nil, opBcast)
	frame = lmonp.AppendBytes(frame, buf)
	for _, conn := range c.children {
		if err := c.send(conn, frame); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Gather collects one byte slice from every daemon; the master receives
// them indexed by rank, other daemons receive nil. The receive and send
// phases sit in their own frames (gatherChildren, gatherUp) so their
// decode/pack state is gone from the stack while the daemon parks under
// the collective — the same shallow-resident-frame rule bootstrap follows.
func (c *Comm) Gather(mine []byte) ([][]byte, error) {
	collected := map[int][]byte{c.rank: mine}
	if err := c.gatherChildren(collected); err != nil {
		return nil, err
	}
	if c.parent != nil {
		if err := c.gatherUp(collected); err != nil {
			return nil, err
		}
		return nil, nil
	}
	out := make([][]byte, c.size)
	if len(collected) != c.size {
		return nil, fmt.Errorf("%w: gathered %d of %d contributions", ErrProtocol, len(collected), c.size)
	}
	for rk, blob := range collected {
		out[rk] = blob
	}
	return out, nil
}

// gatherChildren merges each child subtree's gather contribution into
// collected.
func (c *Comm) gatherChildren(collected map[int][]byte) error {
	for _, conn := range c.children {
		rd, err := c.recvOp(conn, opGather)
		if err != nil {
			return err
		}
		n, err := rd.Uint32()
		if err != nil {
			return err
		}
		for i := uint32(0); i < n; i++ {
			rk, err := rd.Uint32()
			if err != nil {
				return err
			}
			blob, err := rd.Bytes()
			if err != nil {
				return err
			}
			collected[int(rk)] = append([]byte(nil), blob...)
		}
	}
	return nil
}

// gatherUp packs this subtree's contributions and sends them to the parent.
func (c *Comm) gatherUp(collected map[int][]byte) error {
	frame := lmonp.AppendUint32(nil, opGather)
	frame = lmonp.AppendUint32(frame, uint32(len(collected)))
	ranks := make([]int, 0, len(collected))
	for rk := range collected {
		ranks = append(ranks, rk)
	}
	sortInts(ranks)
	for _, rk := range ranks {
		frame = lmonp.AppendUint32(frame, uint32(rk))
		frame = lmonp.AppendBytes(frame, collected[rk])
	}
	return c.send(c.parent, frame)
}

// FoldUp reduces one byte blob per daemon toward the root with the given
// combine function (acc is nil on the first call; combine must be
// associative and commutative — children fold in connection order, which
// is not rank order). Unlike Gather, interior daemons forward one
// combined blob per link, so the reduction stays O(blob) per link at any
// tree size — this is how the observability plane harvests per-daemon
// metric snapshots without building an O(K) concatenation anywhere. The
// root returns the full fold; every other daemon returns nil. Works both
// before and after the links are demultiplexed (recvRaw).
func (c *Comm) FoldUp(mine []byte, combine func(acc, next []byte) ([]byte, error)) ([]byte, error) {
	acc, err := combine(nil, mine)
	if err != nil {
		return nil, err
	}
	for _, conn := range c.children {
		rd, err := c.recvOp(conn, opFold)
		if err != nil {
			return nil, err
		}
		blob, err := rd.Bytes()
		if err != nil {
			return nil, err
		}
		if acc, err = combine(acc, blob); err != nil {
			return nil, err
		}
	}
	if c.parent != nil {
		frame := lmonp.AppendUint32(nil, opFold)
		frame = lmonp.AppendBytes(frame, acc)
		if err := c.send(c.parent, frame); err != nil {
			return nil, err
		}
		return nil, nil
	}
	return acc, nil
}

// Scatter delivers parts[rank] to each daemon; only the master's parts
// argument is used, and it must have exactly Size entries.
func (c *Comm) Scatter(parts [][]byte) ([]byte, error) {
	byRank := map[int][]byte{}
	if c.parent == nil {
		if len(parts) != c.size {
			return nil, fmt.Errorf("%w: scatter needs %d parts, got %d", ErrProtocol, c.size, len(parts))
		}
		for rk, p := range parts {
			byRank[rk] = p
		}
	} else {
		rd, err := c.recvOp(c.parent, opScatter)
		if err != nil {
			return nil, err
		}
		n, err := rd.Uint32()
		if err != nil {
			return nil, err
		}
		for i := uint32(0); i < n; i++ {
			rk, err := rd.Uint32()
			if err != nil {
				return nil, err
			}
			blob, err := rd.Bytes()
			if err != nil {
				return nil, err
			}
			byRank[int(rk)] = append([]byte(nil), blob...)
		}
	}
	for slot, conn := range c.children {
		sub := SubtreeRanks(c.childRk[slot], c.size, c.cfg.Fanout)
		frame := lmonp.AppendUint32(nil, opScatter)
		frame = lmonp.AppendUint32(frame, uint32(len(sub)))
		for _, rk := range sub {
			frame = lmonp.AppendUint32(frame, uint32(rk))
			frame = lmonp.AppendBytes(frame, byRank[rk])
		}
		if err := c.send(conn, frame); err != nil {
			return nil, err
		}
	}
	mine, ok := byRank[c.rank]
	if !ok {
		return nil, fmt.Errorf("%w: no scatter part for rank %d", ErrProtocol, c.rank)
	}
	return mine, nil
}
