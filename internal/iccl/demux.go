package iccl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// This file is the per-link demultiplexer: once a daemon shares its tree
// links with the health layer (ShareLinks) or runs its first collective-
// plane operation — whichever comes first — one event-driven framer per tree
// connection owns the receive side and sorts frames into the heartbeat
// queue, the per-tag stream records of the collective plane (frames and
// credits both, handed to the operation they belong to), and the base queue
// (the walks of Comm's collectives, walk.go). No goroutine is parked per
// link: the framer is a state machine on the vtime scheduler. It is
// installed lazily, never at bootstrap, so the session-seed stream (which
// flows through the same connections while the tree forms) and the
// million-daemon noop profile (whose daemons do neither, and hold nothing
// per link) are untouched.

// linkDemux is the demultiplexed receive side of one tree connection.
// Every queue and backlog is unbounded, so one stalled tagged stream
// cannot head-of-line-block another tag, the base collectives, the
// heartbeats, or the credits that would un-stall it.
//
// It is one allocation that holds only what every link uses: a parked
// daemon holds one per tree link, so what it weighs is multiplied by the
// tree. The two queues are made by their first use — the base queue by a
// Comm collective after demuxing, the heartbeat queue by ShareLinks (or by
// a heartbeat that arrives first) — and the demux is itself the event its
// framer fires, so installing it allocates nothing but it and the
// connection's handler. The root's plane holds one more, conn-less and
// credit-less, for the front end.
type linkDemux struct {
	c    *Comm
	conn *simnet.Conn // nil on the front end's link
	fr   framer       // the link's reader time; its deliveries fire the demux

	// Per-tag state, one record per stream the link carries in either
	// direction. A link carries a stream or two at a time, so the records
	// are a short list searched by tag — a map would outweigh what it holds,
	// on every link, for as long as the daemon lives.
	mu      sync.Mutex
	base    *vtime.Chan[[]byte] // non-plane tree frames (queue)
	hb      *vtime.Chan[[]byte] // heartbeat payloads (queue, Link.Recv)
	streams *tagLink
	spare   *tagLink // the last record retired, backlog array and all
	err     error    // the link's failure, once it has failed
}

// queue returns the queue *q, making it on first use: closed when the link
// has already failed, so a receiver sees the failure and not a wait.
func (d *linkDemux) queue(q **vtime.Chan[[]byte]) *vtime.Chan[[]byte] {
	d.mu.Lock()
	defer d.mu.Unlock()
	if *q == nil {
		*q = vtime.NewChan[[]byte](d.c.p.Sim())
		if d.err != nil {
			(*q).Close()
		}
	}
	return *q
}

// tagLink is one tagged stream on one link, both directions in one place:
// the frames that arrived and no operation has taken yet (a backlog nobody
// blocks on) and their body bytes, the send side's credit, and the
// operation of that tag at this rank the link calls — the one draining the
// backlog, or the one the window stalled. It lives while any of that does.
type tagLink struct {
	d      *linkDemux
	next   *tagLink
	op     *planeOp
	q      []coll.Frame // q[head:] is the backlog
	head   int
	bytes  uint64 // body bytes in the backlog
	credit int    // window credits left to the stream being sent
	tag    uint32 // the stream's key (linkDemux.key)
	open   bool   // a stream is being sent: credits count
}

// demuxLinks idempotently hands the receive side of every tree connection
// to a linkDemux. From then on all receives are served from the demux
// (walks, the plane's operations, Link.Recv) in any interleaving. The one
// constraint is on the switch itself: no walk of this daemon may be
// mid-read on a tree link while it happens (vtime panics on a handler
// installed under a waiting reader), which holds for the session
// lifecycle: the daemon's goroutine waits each walk out, and the init-time
// ones end before ShareLinks and any tool code.
func (c *Comm) demuxLinks() {
	c.dmMu.Lock()
	defer c.dmMu.Unlock()
	if c.demuxes.Load() != nil {
		return
	}
	ds := make([]*linkDemux, 1+len(c.children))
	for i := range ds {
		if conn := c.conn(i - 1); conn != nil {
			ds[i] = c.newLinkDemux(conn)
		}
	}
	c.demuxes.Store(&ds)
}

// demux returns the demux of the link a slot names (above at the root: nil),
// or nil while the daemon still reads its tree links directly.
func (c *Comm) demux(slot int) *linkDemux {
	if ds := c.demuxes.Load(); ds != nil {
		return (*ds)[1+slot]
	}
	return nil
}

// SerialFramer charges the frames of one event-driven link the way a
// blocking reader loop would: frame i is handed to Deliver at
// max(arrival_i, done_{i-1}) + Cost. Whatever is not charged — a
// heartbeat, the link's death — still waits its turn behind a frame that
// is cooking: a serial reader only observes it after charging every frame
// before it, so in-flight deliveries are never dropped or overtaken. It is
// only touched from scheduler callbacks, which never overlap. The leaf seed
// charges PerMsgCost with it; the health layer, on the heartbeat queue the
// demux feeds it, its own cheaper cost. The link demux keeps the same
// framer state without the three fields it knows already, and is the event
// itself.
type SerialFramer struct {
	Sim     *vtime.Sim
	Cost    time.Duration    // reader time per charged frame
	Deliver func(msg []byte) // is handed each charged frame when its time is up

	fr framer
}

// framer is a serial reader's clock and the frames it has charged, in a
// ring: charged instants never decrease and the scheduler breaks ties in
// scheduling order, so the n-th firing of the event charge schedules finds
// the n-th frame. The ring is made by the first frame, grows to the deepest
// burst the link has seen — the sender's window, on a collective stream —
// and is kept, so charging allocates nothing once a link has seen its
// traffic, and a link that has seen none holds no ring.
type framer struct {
	busyUntil time.Duration
	rd, wr    *chargedMsg // the ring: the oldest frame in it (or where wr comes next), the newest
}

// chargedMsg is one slot of a framer's ring, free when msg is nil. After wr
// the ring reads: free slots, then from rd the frames in charging order.
type chargedMsg struct {
	msg  []byte
	next *chargedMsg
}

// Charge hands Deliver msg after one frame's worth of reader time from now
// on.
func (fr *SerialFramer) Charge(msg []byte) { fr.fr.charge(fr.Sim, fr.Cost, msg, fr) }

// Fire is the framer as the event Charge schedules: the oldest charged
// frame's time is up.
func (fr *SerialFramer) Fire() { fr.Deliver(fr.fr.next()) }

// Behind runs fn uncharged once every frame charged so far is delivered.
func (fr *SerialFramer) Behind(fn func()) { fr.fr.behind(fr.Sim, fn) }

// charge queues msg and schedules ev — which takes it with next — cost of
// reader time after the later of now and the last charged frame.
func (fr *framer) charge(sim *vtime.Sim, cost time.Duration, msg []byte, ev vtime.Event) {
	if msg == nil {
		msg = []byte{} // nil marks a free slot
	}
	switch wr := fr.wr; {
	case wr == nil:
		m := &chargedMsg{msg: msg}
		m.next, fr.rd, fr.wr = m, m, m
	case wr.next.msg == nil:
		wr.next.msg, fr.wr = msg, wr.next
	default:
		wr.next = &chargedMsg{msg: msg, next: wr.next}
		fr.wr = wr.next
	}
	now := sim.Now()
	fr.busyUntil = max(now, fr.busyUntil) + cost
	sim.AfterEvent(fr.busyUntil-now, ev)
}

// next takes the oldest charged frame, whose time is up.
func (fr *framer) next() []byte {
	rd := fr.rd
	msg := rd.msg
	rd.msg, fr.rd = nil, rd.next
	return msg
}

// behind runs fn uncharged once every frame charged so far is delivered.
func (fr *framer) behind(sim *vtime.Sim, fn func()) {
	if now := sim.Now(); fr.busyUntil > now {
		sim.After(fr.busyUntil-now, fn)
	} else {
		fn()
	}
}

// newLinkDemux registers the demux on conn (none for the front end's
// link). Heartbeats are not charged here: the health layer charges them on
// consumption, at its own cheaper per-message cost.
func (c *Comm) newLinkDemux(conn *simnet.Conn) *linkDemux {
	d := &linkDemux{c: c, conn: conn}
	if conn != nil {
		conn.HandleQueue(d.receive)
	}
	return d
}

// receive takes one message off the connection, or its end (ok false).
// The framer takes whole messages, not lmonp.HandleFrames' unwrapped
// payloads: a collective frame keeps the message it arrived in
// (coll.Frame.Wire), length prefix included, for planeOp.relay.
func (d *linkDemux) receive(msg []byte, ok bool) {
	var raw []byte
	var err error
	if ok {
		raw, err = lmonp.FrameFromMessage(msg)
	} else {
		err = d.conn.EndErr()
	}
	sim := d.c.p.Sim()
	switch {
	case err != nil:
		d.fr.behind(sim, func() { d.fail(err) })
	case len(raw) >= 4 && binary.BigEndian.Uint32(raw) == opHeartbeat:
		d.fr.behind(sim, func() { d.queue(&d.hb).Send(raw[4:]) })
	default:
		d.fr.charge(sim, PerMsgCost, msg, d)
	}
}

// Fire is the demux as the event its framer schedules: the oldest charged
// frame's time is up.
func (d *linkDemux) Fire() {
	msg := d.fr.next()
	if sortHook != nil {
		sortHook(d, msg)
	}
	d.deliver(msg)
}

// sortHook, when set, sees every charged frame at the instant a demux sorts
// it: the test hook TestLinkDemuxChargesLikeASerialReader times tagged
// frames and credits with.
var sortHook func(d *linkDemux, msg []byte)

// deliver sorts one charged message: collective-plane frames and credit
// frames to their tag's record, the Comm collectives' frames to the base
// queue. A frame that does not parse, or whose opcode no reader of the
// link takes, fails the link, naming the peer.
//
// A collective is handled where it arrives: the operation a frame or a
// credit belongs to is called here, on the scheduler, in place of a queue
// the daemon's goroutine would be woken to read. It is a plain call, not a
// zero-delay event, so the credit and the onward sends take the scheduling
// order they took when that goroutine made them.
func (d *linkDemux) deliver(msg []byte) {
	raw := msg[4:] // the framer checked the prefix
	d.c.countRx(raw)
	var op uint32
	if len(raw) >= 4 {
		op = binary.BigEndian.Uint32(raw)
	}
	var f coll.Frame
	var err error
	switch op {
	case opCollChunk, opCollEnd:
		if f, err = parseFrameOp(raw, opCollChunk, opCollEnd); err == nil {
			f.Wire = msg
			d.arrive(f)
		}
	case opCredit:
		if f, err = parseCredit(raw); err == nil {
			d.credit(f.H.Tag, f.Credits())
		}
	case opBarrier, opRelease, opBcast, opGather, opScatter, opFold:
		d.queue(&d.base).Send(raw)
	case opStatus: // the peer's failure, relayed: what the link fails with
		var st *peerError
		if st, err = d.c.parseStatus(raw); err == nil {
			d.fail(st)
		}
	default:
		err = errors.New("no reader of the link takes it")
	}
	if err != nil {
		d.fail(fmt.Errorf("%w: opcode %d from rank %d: %v", errProtocol, op, d.peer(), err))
	}
}

// peer is the rank at the link's other end.
func (d *linkDemux) peer() int {
	for i, conn := range d.c.children {
		if conn == d.conn {
			return d.c.childRank(i)
		}
	}
	return Parent(d.c.rank, d.c.fanout)
}

// gauge maintains the interior-depth observability gauges for one frame
// entering a backlog that then holds depth frames and bytes body bytes:
// coll.queue.depth.max is the high-water data-chunk count of any one
// (link, tag) backlog at this daemon, coll.link.bytes.max the high-water
// queued body bytes. A bare End carries no payload and is its stream's only
// message, so the depth gauge excludes it; a Last chunk counts like any
// chunk, so the flow-control invariant is exact: depth ≤ window. The front
// end's link is not a tree link and is not gauged.
func (d *linkDemux) gauge(f coll.Frame, depth int, bytes uint64) {
	m := d.c.obs
	if d.conn == nil || m == nil {
		return
	}
	if !f.End {
		m.collDepthMax.SetMax(uint64(depth))
	}
	m.collBytesMax.SetMax(bytes)
}

// key is the record tag's frames go to: its own on a tree link, its
// coll.FEStream on the front end's.
func (d *linkDemux) key(tag uint32) uint32 {
	if d.conn == nil {
		return coll.FEStream(tag)
	}
	return tag
}

// find returns tag's record, nil when the link has none. Caller holds mu.
func (d *linkDemux) find(tag uint32) *tagLink {
	s, k := d.streams, d.key(tag)
	for s != nil && s.tag != k {
		s = s.next
	}
	return s
}

// stream returns tag's record, making it when the link has none. Caller
// holds mu.
func (d *linkDemux) stream(tag uint32) *tagLink {
	if s := d.find(tag); s != nil {
		return s
	}
	s := d.spare
	if s == nil {
		s = &tagLink{d: d}
	}
	d.spare = nil
	s.tag, s.next, d.streams = d.key(tag), d.streams, s
	return s
}

// drop retires s once nothing of it is live, so tags do not accumulate
// across collectives; the record is kept as the next stream's, backlog
// array and all. Caller holds mu.
func (d *linkDemux) drop(s *tagLink) {
	if s.open || s.op != nil || len(s.q) > s.head {
		return
	}
	for p := &d.streams; *p != nil; p = &(*p).next {
		if *p == s {
			*p = s.next
			s.next, s.q, s.head, s.bytes = nil, s.q[:0], 0, 0
			d.spare = s
			return
		}
	}
}

// arrive hands one collective frame to its tag's record: to the operation
// draining it when that one is ready and nothing of the stream waits ahead
// of the frame, else to the backlog. A failed link takes nothing more.
func (d *linkDemux) arrive(f coll.Frame) {
	d.mu.Lock()
	if d.err != nil {
		d.mu.Unlock()
		return
	}
	s := d.stream(f.H.Tag)
	o := s.op
	if o != nil && o.src == s && len(s.q) == s.head && len(o.out) == 0 && !o.busy && !o.done {
		d.mu.Unlock()
		d.gauge(f, 1, uint64(len(f.Body))) // queued and taken in one step
		o.take(f)
		o.pump()
		return
	}
	s.q = append(s.q, f)
	s.bytes += uint64(len(f.Body))
	depth, bytes := len(s.q)-s.head, s.bytes
	d.mu.Unlock()
	d.gauge(f, depth, bytes)
}

// pop takes the oldest frame of s's backlog.
func (d *linkDemux) pop(s *tagLink) (coll.Frame, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s.head == len(s.q) {
		return coll.Frame{}, false
	}
	f := s.q[s.head]
	s.q[s.head] = coll.Frame{}
	if s.head++; s.head == len(s.q) {
		s.q, s.head = s.q[:0], 0
	}
	s.bytes -= uint64(len(f.Body))
	return f, true
}

// consume registers o as what drains its tag's stream on this link.
func (d *linkDemux) consume(o *planeOp) *tagLink {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stream(o.tag)
	s.op = o
	return s
}

// release ends o's draining of s at the stream's end marker.
func (d *linkDemux) release(s *tagLink, o *planeOp) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s.op == o {
		s.op = nil
	}
	d.drop(s)
}

// takeCredit spends one window credit of o's stream on this link, opening
// the window at the stream's first chunk; false when it is empty, leaving
// o on the record for the next credit to call back.
func (d *linkDemux) takeCredit(o *planeOp) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stream(o.tag)
	if !s.open {
		s.open, s.credit = true, o.pl.window
	}
	if s.credit == 0 {
		s.op = o
		return false
	}
	s.credit--
	return true
}

// closeSend retires the send side of o's stream once its end message is on
// the wire; credits still in flight for it are dropped on arrival.
func (d *linkDemux) closeSend(o *planeOp) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s := d.find(o.tag); s != nil {
		if s.op == o && o.src != s {
			s.op = nil
		}
		s.open, s.credit = false, 0
		d.drop(s)
	}
}

// credit applies n returned credits to the tag's stream being sent and
// calls its operation back.
func (d *linkDemux) credit(tag uint32, n uint32) {
	d.mu.Lock()
	var o *planeOp
	if s := d.find(tag); s != nil && s.open {
		s.credit += int(n)
		o = s.op
	}
	d.mu.Unlock()
	if o != nil {
		o.pump()
	}
}

// abandon drops what a failed operation leaves on this link: its
// registration, its stream's backlog and its send side.
func (d *linkDemux) abandon(o *planeOp) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s := d.find(o.tag); s != nil && (s.op == nil || s.op == o) {
		clear(s.q)
		s.q, s.head, s.op, s.open = s.q[:0], 0, nil, false
		d.drop(s)
	}
}

// failure returns the link's recorded failure, nil while it is up.
func (d *linkDemux) failure() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// fail severs the link's receive side: the connection died (or delivered
// garbage), so every consumer — base receivers, the health layer, the
// operations draining the link or waiting for its credit — must observe
// it. Operations are called back outside mu, after the queues: each goes
// on until it touches the link and finds it failed.
func (d *linkDemux) fail(err error) {
	d.mu.Lock()
	if d.err == nil {
		d.err = severedError{err}
	}
	var ops []*planeOp
	for s := d.streams; s != nil; s = s.next {
		if s.op != nil {
			ops = append(ops, s.op)
		}
	}
	base, hb := d.base, d.hb
	d.mu.Unlock()
	if base != nil {
		base.Close()
	}
	if hb != nil {
		hb.Close()
	}
	for _, o := range ops {
		o.pump()
	}
}

// severedError is a failed link's error: ErrSevered, caused by err. It is
// one allocation where an fmt.Errorf wrapping both would be three, on
// every link of every daemon that ends.
type severedError struct{ err error }

func (e severedError) Error() string        { return ErrSevered.Error() + ": " + e.err.Error() }
func (e severedError) Is(target error) bool { return target == ErrSevered }
func (e severedError) Unwrap() error        { return e.err }

// parseCredit decodes one opCredit tree frame: the opcode and the
// encoded coll header whose Index field carries the credit count.
func parseCredit(raw []byte) (coll.Frame, error) {
	rd := lmonp.NewReader(raw)
	rd.Uint32() // the opcode, which the demux dispatched on
	hraw := rd.Bytes()
	if err := rd.Err(); err != nil {
		return coll.Frame{}, err
	}
	h, err := coll.DecodeHeader(lmonp.NewReader(hraw))
	if err != nil {
		return coll.Frame{}, err
	}
	if h.Op != coll.OpCredit {
		return coll.Frame{}, fmt.Errorf("%w: op %v in a credit frame", errProtocol, h.Op)
	}
	return coll.Frame{H: h}, nil
}

// creditLen is a credit message's size: length prefix, opcode, header
// length and a filterless header.
const creditLen = 4 + 4 + 4 + 21

// sendCredit returns one credit of o's stream to the peer on conn. Every
// credit of a stream is the same (tag, 1) message, so o builds it at its
// first credit and sends that buffer every time after — a sent message is
// immutable (DESIGN.md "Buffer ownership"). Credit frames ride the generic
// tree-frame path (counted in the iccl tx metrics plus a dedicated credit
// counter) but deliberately not the coll.tx data counters, so wire-byte
// invariants on collective payload still hold with flow control on.
func (o *planeOp) sendCredit(conn *simnet.Conn) error {
	if o.credit == nil {
		h := coll.CreditFrame(o.tag, 1).H
		hn := h.EncodedSize()
		o.credit = (*[creditLen]byte)(h.AppendTo(lmonp.AppendUint32(newFrame(opCredit, 4+hn), uint32(hn))))
	}
	if m := o.pl.c.obs; m != nil {
		m.creditTxFrames.Inc()
	}
	return o.pl.c.send(conn, o.credit[:])
}
