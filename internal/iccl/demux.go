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
type linkDemux struct {
	c    *Comm
	base *vtime.Chan[[]byte]                // non-plane tree frames
	hb   *vtime.Chan[[]byte]                // heartbeat payloads (Link.Recv)
	tags *vtime.Streams[uint32, coll.Frame] // per-tag collective streams
	fr   SerialFramer                       // the link's reader time

	mu     sync.Mutex
	qBytes map[uint32]uint64      // queued body bytes per tag
	gates  map[uint32]*creditGate // send-side credit per tag
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
// blocking reader loop would: frame i is handed over at
// max(arrival_i, done_{i-1}) + Cost. Whatever is not charged — a
// heartbeat, the link's death — still waits its turn behind a frame that
// is cooking: a serial reader only observes it after charging every frame
// before it, so in-flight deliveries are never dropped or overtaken. It is
// only touched from scheduler callbacks, which never overlap. The link
// demux and the leaf seed charge PerMsgCost with it; the health layer, on
// the heartbeat queue the demux feeds it, its own cheaper cost.
type SerialFramer struct {
	Sim       *vtime.Sim
	Cost      time.Duration // reader time per charged frame
	busyUntil time.Duration
}

// Charge hands fn one frame's worth of reader time from now on.
func (fr *SerialFramer) Charge(fn func()) {
	now := fr.Sim.Now()
	fr.busyUntil = max(now, fr.busyUntil) + fr.Cost
	fr.Sim.After(fr.busyUntil-now, fn)
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
	d := &linkDemux{
		c:    c,
		base: vtime.NewChan[[]byte](sim),
		hb:   vtime.NewChan[[]byte](sim),
		tags: vtime.NewStreams[uint32, coll.Frame](sim),
		fr:   SerialFramer{Sim: sim, Cost: PerMsgCost},
	}
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
			d.fr.Charge(func() { d.deliver(msg) })
		}
	})
	return d
}

// deliver sorts one charged message: collective-plane frames to their
// tag's stream, credit frames to their gate, everything else to the base
// queue. A frame that does not parse fails the link.
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

// enqueue routes one collective frame to its tag queue, maintaining the
// interior-depth observability gauges: coll.queue.depth.max is the
// high-water data-chunk count of any one (link, tag) queue at this
// daemon, coll.link.bytes.max the high-water queued body bytes. End
// markers ride outside the credit window (they carry no payload and
// each stream has exactly one), so the depth gauge excludes them and
// the flow-control invariant is exact: depth ≤ window.
func (d *linkDemux) enqueue(f coll.Frame) {
	q := d.tags.Q(f.H.Tag)
	d.mu.Lock()
	if d.qBytes == nil {
		d.qBytes = make(map[uint32]uint64)
	}
	d.qBytes[f.H.Tag] += uint64(len(f.Body))
	bytes := d.qBytes[f.H.Tag]
	d.mu.Unlock()
	if !f.End {
		d.c.collDepthMax.SetMax(uint64(q.Len() + 1))
	}
	d.c.collBytesMax.SetMax(bytes)
	q.Send(f)
}

// dequeued accounts for one frame leaving its tag queue (consumed by
// recvTagged), retiring the stream's state at its end marker so tags do
// not accumulate across collectives.
func (d *linkDemux) dequeued(f coll.Frame) {
	d.mu.Lock()
	if f.End {
		delete(d.qBytes, f.H.Tag)
	} else if n := d.qBytes[f.H.Tag]; n >= uint64(len(f.Body)) {
		d.qBytes[f.H.Tag] = n - uint64(len(f.Body))
	}
	d.mu.Unlock()
	if f.End {
		d.tags.Drop(f.H.Tag)
	}
}

// gate returns (creating on demand, preloaded with window tokens) the
// send-side credit gate of one tagged stream on this link; on a failed
// link it comes severed.
func (d *linkDemux) gate(tag uint32, window int) *creditGate {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.gates == nil {
		d.gates = make(map[uint32]*creditGate)
	}
	g := d.gates[tag]
	if g == nil {
		g = newCreditGate(d.c.p.Sim(), window)
		if d.tags.Err() != nil {
			g.sever()
		}
		d.gates[tag] = g
	}
	return g
}

// dropGate retires a stream's credit gate once its End frame is on the
// wire; credits still in flight for it are dropped on arrival.
func (d *linkDemux) dropGate(tag uint32) {
	d.mu.Lock()
	delete(d.gates, tag)
	d.mu.Unlock()
}

// credit applies n returned credits to the tag's gate, dropping credits
// for already-retired streams.
func (d *linkDemux) credit(tag uint32, n uint32) {
	d.mu.Lock()
	g := d.gates[tag]
	d.mu.Unlock()
	if g != nil {
		g.credit(int(n))
	}
}

// fail severs the link's receive side: the connection died (or delivered
// garbage), so every consumer — base receivers, tagged receivers, the
// health layer, senders blocked on credit — must wake and observe it. The
// streams fail first: gate reads their error under mu to sever gates
// created after this point.
func (d *linkDemux) fail(err error) {
	d.tags.Fail(fmt.Errorf("%w: %v", ErrSevered, err))
	d.base.Close()
	d.hb.Close()
	d.mu.Lock()
	for _, g := range d.gates {
		g.sever()
	}
	d.mu.Unlock()
}

// creditGate is the send side of the per-(link, tag) outstanding-chunk
// window: acquire takes one credit before a chunk goes on the wire
// (blocking in virtual time while the window is exhausted), credit
// returns credits as the receiver consumes chunks.
type creditGate struct {
	tokens *vtime.Chan[struct{}]
}

func newCreditGate(sim *vtime.Sim, window int) *creditGate {
	g := &creditGate{tokens: vtime.NewChan[struct{}](sim)}
	g.credit(window)
	return g
}

// acquire blocks until a credit is available; it fails when the link
// severed while the sender was waiting.
func (g *creditGate) acquire() error {
	if _, ok := g.tokens.Recv(); !ok {
		return ErrSevered
	}
	return nil
}

// credit returns n credits to the window.
func (g *creditGate) credit(n int) {
	for i := 0; i < n; i++ {
		g.tokens.Send(struct{}{})
	}
}

// sever wakes any sender blocked in acquire.
func (g *creditGate) sever() { g.tokens.Close() }

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
