package iccl

import (
	"encoding/binary"
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
// plane operation — whichever comes first — one event-driven framer per
// tree connection owns the receive side and sorts frames into the
// heartbeat queue, the per-tag collective streams, the credit gates of the
// flow-control window, and the base queue (barrier/fold/bcast of the
// bootstrap-era Comm collectives). No goroutine is parked per link: the
// framer is a state machine on the vtime scheduler. It is installed
// lazily, never at bootstrap, so the session-seed stream (which flows
// through the same connections while the tree forms) and the million-
// daemon noop profile (whose daemons do neither, and hold nothing per
// link) are untouched.

// linkDemux is the demultiplexed receive side of one tree connection.
// Every queue is unbounded, so one stalled tagged stream cannot head-of-
// line-block another tag, the base collectives, the heartbeats, or the
// credits that would un-stall it.
//
// It is one allocation, queues and framer held by value: a parked daemon
// holds one per tree link, so what it weighs is multiplied by the tree.
type linkDemux struct {
	c    *Comm
	base vtime.Chan[[]byte]                // non-plane tree frames
	hb   vtime.Chan[[]byte]                // heartbeat payloads (Link.Recv)
	tags vtime.Streams[uint32, coll.Frame] // per-tag collective streams
	fr   SerialFramer                      // the link's reader time

	// Per-tag state. A link carries a stream or two at a time, so each kind
	// is a short list searched by tag — a map would outweigh what it holds,
	// on every link, for as long as the daemon lives.
	mu     sync.Mutex
	qBytes []tagBytes  // queued body bytes per tag
	gates  *creditGate // send-side credit per tag
	relays *downRelay  // down-phase streams running on this (parent) link
}

// tagBytes is the body bytes one tag's queue holds.
type tagBytes struct {
	tag uint32
	n   uint64
}

// demuxLinks idempotently hands the receive side of every tree connection
// to a linkDemux. From then on all receives are served from the demux
// queues (recvRaw, recvTagged, Link.Recv) in any interleaving. The one
// constraint is on the switch itself: no goroutine of this daemon may be
// parked in a direct-mode read on a tree link while it happens (vtime
// panics on a handler installed under a parked reader), which holds for
// the session lifecycle — the daemon's init goroutine runs the init-time
// gathers and ShareLinks back to back, before any tool code.
func (c *Comm) demuxLinks() {
	c.dmMu.Lock()
	defer c.dmMu.Unlock()
	if c.demux != nil {
		return
	}
	c.demux = make(map[*simnet.Conn]*linkDemux, len(c.children)+1)
	if c.parent != nil {
		c.demux[c.parent] = c.newLinkDemux(c.parent)
	}
	for _, conn := range c.children {
		c.demux[conn] = c.newLinkDemux(conn)
	}
}

// demuxFor returns the demux owning conn, or nil while the daemon still
// reads its tree links directly.
func (c *Comm) demuxFor(conn *simnet.Conn) *linkDemux {
	c.dmMu.Lock()
	defer c.dmMu.Unlock()
	return c.demux[conn]
}

// SerialFramer charges the frames of one event-driven link the way a
// blocking reader loop would: frame i is handed to Deliver at
// max(arrival_i, done_{i-1}) + Cost. Whatever is not charged — a
// heartbeat, the link's death — still waits its turn behind a frame that
// is cooking: a serial reader only observes it after charging every frame
// before it, so in-flight deliveries are never dropped or overtaken. It is
// only touched from scheduler callbacks, which never overlap. The link
// demux and the leaf seed charge PerMsgCost with it; the health layer, on
// the heartbeat queue the demux feeds it, its own cheaper cost.
//
// The framer is the event it schedules (vtime.Event) and keeps the frames
// it has charged itself, in a ring: charged instants never decrease and the
// scheduler breaks ties in scheduling order, so the n-th firing finds the
// n-th frame. The ring is made by the first frame, grows to the deepest
// burst the link has seen — the sender's window, on a collective stream —
// and is kept, so charging allocates nothing once a link has seen its
// traffic, and a link that has seen none holds no ring.
type SerialFramer struct {
	Sim     *vtime.Sim
	Cost    time.Duration    // reader time per charged frame
	Deliver func(msg []byte) // is handed each charged frame when its time is up

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
func (fr *SerialFramer) Charge(msg []byte) {
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
	now := fr.Sim.Now()
	fr.busyUntil = max(now, fr.busyUntil) + fr.Cost
	fr.Sim.AfterEvent(fr.busyUntil-now, fr)
}

// Fire is the framer as the event Charge schedules: the oldest charged
// frame's time is up.
func (fr *SerialFramer) Fire() {
	rd := fr.rd
	msg := rd.msg
	rd.msg, fr.rd = nil, rd.next
	fr.Deliver(msg)
}

// Behind runs fn uncharged once every frame charged so far is delivered.
func (fr *SerialFramer) Behind(fn func()) {
	if now := fr.Sim.Now(); fr.busyUntil > now {
		fr.Sim.After(fr.busyUntil-now, fn)
	} else {
		fn()
	}
}

// newLinkDemux registers the framer on conn. Heartbeats are not charged
// here: the health layer charges them on consumption, at its own cheaper
// per-message cost.
func (c *Comm) newLinkDemux(conn *simnet.Conn) *linkDemux {
	sim := c.p.Sim()
	d := &linkDemux{c: c}
	d.base.Init(sim)
	d.hb.Init(sim)
	d.tags.Init(sim)
	d.fr = SerialFramer{Sim: sim, Cost: PerMsgCost, Deliver: d.deliver}
	// The framer takes whole messages, not lmonp.HandleFrames' unwrapped
	// payloads: a collective frame keeps the message it arrived in
	// (coll.Frame.Wire), length prefix included, for the down-phase relay.
	conn.Handle(func(msg []byte, err error) {
		var raw []byte
		if err == nil {
			raw, err = lmonp.FrameFromMessage(msg)
		}
		switch {
		case err != nil:
			d.fr.Behind(func() { d.fail(err) })
		case len(raw) >= 4 && binary.BigEndian.Uint32(raw) == opHeartbeat:
			d.fr.Behind(func() { d.hb.Send(raw[4:]) })
		default:
			d.fr.Charge(msg)
		}
	})
	return d
}

// deliver sorts one charged message: collective-plane frames to their
// tag's stream, credit frames to their gate, everything else to the base
// queue. A frame that does not parse fails the link.
//
// A down-phase stream is handled where it arrives: when the daemon is in
// the operation (its relay is registered) and nothing of the stream waits
// ahead of the frame, the relay takes it here, on the scheduler, in place
// of a queue the daemon's goroutine would be woken to read. It is a plain
// call, not a zero-delay event, so the credit and the onward sends take
// the scheduling order they took when that goroutine made them.
func (d *linkDemux) deliver(msg []byte) {
	raw := msg[4:] // the framer checked the prefix
	d.c.countRx(raw)
	var op uint32
	if len(raw) >= 4 {
		op = binary.BigEndian.Uint32(raw)
	}
	switch op {
	case opCollChunk, opCollEnd:
		f, err := parseFrameOp(raw, opCollChunk, opCollEnd)
		if err != nil {
			d.fail(err)
			return
		}
		f.Wire = msg
		if r := d.relay(f.H.Tag); r != nil && r.held == nil {
			d.gauge(f, 1, uint64(len(f.Body))) // queued and taken in one step
			r.take(f)
			return
		}
		d.enqueue(f)
	case opCredit:
		f, err := parseCredit(raw)
		if err != nil {
			d.fail(err)
			return
		}
		d.credit(f.H.Tag, f.Credits())
	default:
		d.base.Send(raw)
	}
}

// gauge maintains the interior-depth observability gauges for one frame
// entering a tag queue that then holds depth frames and bytes body bytes:
// coll.queue.depth.max is the high-water data-chunk count of any one
// (link, tag) queue at this daemon, coll.link.bytes.max the high-water
// queued body bytes. End markers ride outside the credit window (they
// carry no payload and each stream has exactly one), so the depth gauge
// excludes them and the flow-control invariant is exact: depth ≤ window.
func (d *linkDemux) gauge(f coll.Frame, depth int, bytes uint64) {
	if !f.End {
		d.c.collDepthMax.SetMax(uint64(depth))
	}
	d.c.collBytesMax.SetMax(bytes)
}

// enqueue routes one collective frame to its tag queue.
func (d *linkDemux) enqueue(f coll.Frame) {
	q := d.tags.Q(f.H.Tag)
	d.mu.Lock()
	b := d.queued(f.H.Tag)
	if b == nil {
		d.qBytes = append(d.qBytes, tagBytes{tag: f.H.Tag})
		b = &d.qBytes[len(d.qBytes)-1]
	}
	b.n += uint64(len(f.Body))
	bytes := b.n
	d.mu.Unlock()
	d.gauge(f, q.Len()+1, bytes)
	q.Send(f)
}

// queued returns tag's byte count, nil when nothing of it was ever queued.
// Caller holds mu.
func (d *linkDemux) queued(tag uint32) *tagBytes {
	for i := range d.qBytes {
		if d.qBytes[i].tag == tag {
			return &d.qBytes[i]
		}
	}
	return nil
}

// dequeued accounts for one frame leaving its tag queue (consumed by
// recvTagged or a relay), retiring the stream's state at its end marker so
// tags do not accumulate across collectives.
func (d *linkDemux) dequeued(f coll.Frame) {
	if f.End {
		d.retire(f.H.Tag)
		return
	}
	d.mu.Lock()
	if b := d.queued(f.H.Tag); b != nil && b.n >= uint64(len(f.Body)) {
		b.n -= uint64(len(f.Body))
	}
	d.mu.Unlock()
}

// retire drops a stream's tag queue, if it ever had one, and its byte
// count.
func (d *linkDemux) retire(tag uint32) {
	d.mu.Lock()
	if b := d.queued(tag); b != nil {
		last := len(d.qBytes) - 1
		*b = d.qBytes[last]
		d.qBytes = d.qBytes[:last]
	}
	d.mu.Unlock()
	d.tags.Drop(tag)
}

// relay returns the down-phase relay registered for tag on this link, nil
// when the daemon is not in that operation.
func (d *linkDemux) relay(tag uint32) *downRelay {
	d.mu.Lock()
	defer d.mu.Unlock()
	r := d.relays
	for r != nil && r.tag != tag {
		r = r.next
	}
	return r
}

// register enters r — one down stream a link is the norm, so the relays
// are a list threaded through them, not a map.
func (d *linkDemux) register(r *downRelay) {
	d.mu.Lock()
	r.next, d.relays = d.relays, r
	d.mu.Unlock()
}

// unregister takes r off the list, once its stream is over.
func (d *linkDemux) unregister(r *downRelay) {
	d.mu.Lock()
	for p := &d.relays; *p != nil; p = &(*p).next {
		if *p == r {
			*p, r.next = r.next, nil
			break
		}
	}
	d.mu.Unlock()
}

// gate returns (creating on demand, preloaded with window tokens) the
// send-side credit gate of one tagged stream on this link; on a failed
// link it comes severed.
func (d *linkDemux) gate(tag uint32, window int) *creditGate {
	d.mu.Lock()
	defer d.mu.Unlock()
	g := d.gateOf(tag)
	if g == nil {
		g = &creditGate{tag: tag, next: d.gates}
		g.tokens.Init(d.c.p.Sim())
		g.credit(window)
		if d.tags.Err() != nil {
			g.sever()
		}
		d.gates = g
	}
	return g
}

// gateOf returns tag's gate, nil when it has none. Caller holds mu.
func (d *linkDemux) gateOf(tag uint32) *creditGate {
	g := d.gates
	for g != nil && g.tag != tag {
		g = g.next
	}
	return g
}

// dropGate retires a stream's credit gate once its End frame is on the
// wire; credits still in flight for it are dropped on arrival.
func (d *linkDemux) dropGate(tag uint32) {
	d.mu.Lock()
	for p := &d.gates; *p != nil; p = &(*p).next {
		if g := *p; g.tag == tag {
			*p, g.next = g.next, nil
			break
		}
	}
	d.mu.Unlock()
}

// credit applies n returned credits to the tag's gate, dropping credits
// for already-retired streams.
func (d *linkDemux) credit(tag uint32, n uint32) {
	d.mu.Lock()
	g := d.gateOf(tag)
	d.mu.Unlock()
	if g != nil {
		g.credit(int(n))
	}
}

// fail severs the link's receive side: the connection died (or delivered
// garbage), so every consumer — base receivers, tagged receivers, the
// health layer, senders waiting for credit, the relays fed from this link —
// must observe it. The streams fail first: gate reads their error under mu
// to sever gates created after this point. Gates and relays are called
// outside mu: a relay that resumes asks this demux for its gate.
func (d *linkDemux) fail(err error) {
	d.tags.Fail(fmt.Errorf("%w: %v", ErrSevered, err))
	d.base.Close()
	d.hb.Close()
	d.mu.Lock()
	var gates []*creditGate
	for g := d.gates; g != nil; g = g.next {
		gates = append(gates, g)
	}
	r := d.relays
	d.mu.Unlock()
	for _, g := range gates {
		g.sever()
	}
	for r != nil {
		next := r.next // pump may finish r, which unlinks it
		r.pump()
		r = next
	}
}

// creditGate is the send side of the per-(link, tag) outstanding-chunk
// window, one object: acquire takes one credit before a chunk goes on the
// wire (blocking in virtual time while the window is exhausted), credit
// returns credits as the receiver consumes chunks. A stream has one sender,
// so at most one party waits on an empty window: a goroutine parked in
// acquire, or the down-phase relay that found tryAcquire empty and left
// itself as waiter, to be called back on the scheduler.
type creditGate struct {
	tokens  vtime.Chan[struct{}]
	waiter  *downRelay
	tag     uint32
	severed bool
	next    *creditGate // linkDemux.gates
}

// acquire blocks until a credit is available; it fails when the link
// severed while the sender was waiting.
func (g *creditGate) acquire() error {
	if _, ok := g.tokens.Recv(); !ok {
		return ErrSevered
	}
	return nil
}

// tryAcquire takes a credit if the window has one; ok false means it is
// empty, and the caller may leave itself as waiter. On a severed link it
// fails whatever credit is left: nothing sent there arrives.
func (g *creditGate) tryAcquire() (ok bool, err error) {
	if g.severed {
		return false, ErrSevered
	}
	_, ok = g.tokens.TryRecv()
	return ok, nil
}

// credit returns n credits to the window.
func (g *creditGate) credit(n int) {
	for i := 0; i < n; i++ {
		g.tokens.Send(struct{}{})
	}
	g.resume()
}

// sever wakes any sender waiting for a credit.
func (g *creditGate) sever() {
	g.severed = true
	g.tokens.Close()
	g.resume()
}

// resume calls the waiting relay back, once.
func (g *creditGate) resume() {
	if r := g.waiter; r != nil {
		g.waiter = nil
		r.pump()
	}
}

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
		return coll.Frame{}, fmt.Errorf("%w: op %v in a credit frame", ErrProtocol, h.Op)
	}
	return coll.Frame{H: h}, nil
}

// sendCredit returns n credits for a tagged stream to the peer on conn.
// Credit frames ride the generic tree-frame path (counted in the iccl
// tx metrics plus a dedicated credit counter) but deliberately not the
// coll.tx data counters, so wire-byte invariants on collective payload
// still hold with flow control on.
func (c *Comm) sendCredit(conn *simnet.Conn, tag uint32, n uint32) error {
	h := coll.CreditFrame(tag, n).H
	hn := h.EncodedSize()
	msg := lmonp.AppendUint32(newFrame(opCredit, 4+hn), uint32(hn))
	c.creditTxFrames.Inc()
	return c.send(conn, h.AppendTo(msg))
}
