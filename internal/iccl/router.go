package iccl

import (
	"encoding/binary"
	"fmt"
	"sync"

	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// This file is the per-connection demultiplexer of collective plane v2:
// once a daemon starts using tagged (possibly concurrent) collective
// streams, a router goroutine owns each tree connection's receive side
// and sorts frames into per-tag queues, the base-opcode queue (barrier/
// fold/bcast of the bootstrap-era Comm collectives), and the credit
// gates of the flow-control window. The router starts lazily on the
// first plane operation — never at plane creation — so the session-seed
// stream (which flows through the same connections during bootstrap)
// and the million-daemon noop profile (whose daemons never run a plane
// op, and must not pay a goroutine per link) are untouched.

// connRouter demultiplexes one tree connection.
type connRouter struct {
	c *Comm

	mu     sync.Mutex
	base   *vtime.Chan[[]byte]                // non-plane tree frames
	tags   map[uint32]*vtime.Chan[coll.Frame] // per-tag collective streams
	qBytes map[uint32]uint64                  // queued body bytes per tag
	gates  map[uint32]*creditGate             // send-side credit per tag
	err    error
	closed bool
}

// startRouter idempotently switches every tree connection of the
// communicator to routed mode and spawns one router goroutine per link.
// Every public Plane operation calls it on entry. After it runs, base
// collective receives (Comm.Barrier, FoldUp, ...) are served from the
// router's base queue — they must not overlap the first plane operation
// on the same link direction, which holds for the session lifecycle
// (init-time gathers precede plane traffic; the finalize barrier
// follows it).
func (c *Comm) startRouter() {
	c.rtMu.Lock()
	defer c.rtMu.Unlock()
	if c.routers != nil {
		return
	}
	c.routers = make(map[*simnet.Conn]*connRouter, len(c.children)+1)
	conns := make([]*simnet.Conn, 0, len(c.children)+1)
	if c.parent != nil {
		conns = append(conns, c.parent)
	}
	conns = append(conns, c.children...)
	for _, conn := range conns {
		rt := &connRouter{
			c:    c,
			base: vtime.NewChan[[]byte](c.p.Sim()),
		}
		c.routers[conn] = rt
		conn := conn
		c.p.Sim().Go(fmt.Sprintf("iccl-router-%d", c.rank), func() { c.routeConn(conn, rt) })
	}
}

// routerFor returns the router owning conn, or nil when routing has not
// started (or conn is not a tree link of this communicator).
func (c *Comm) routerFor(conn *simnet.Conn) *connRouter {
	c.rtMu.Lock()
	defer c.rtMu.Unlock()
	return c.routers[conn]
}

// routeConn is the router goroutine: it reads raw tree frames off one
// connection and routes collective-plane frames by tag, credit frames
// to their gates, and everything else to the base queue. It never
// blocks on a consumer (all queues are unbounded), so one stalled
// tagged stream cannot head-of-line-block another tag or the credits
// that would un-stall it.
func (c *Comm) routeConn(conn *simnet.Conn, rt *connRouter) {
	for {
		raw, err := c.recvRawDirect(conn)
		if err != nil {
			rt.fail(err)
			return
		}
		if len(raw) >= 4 {
			switch binary.BigEndian.Uint32(raw) {
			case opCollChunk, opCollEnd:
				f, err := parseFrameOp(raw, opCollChunk, opCollEnd)
				if err != nil {
					rt.fail(err)
					return
				}
				rt.enqueue(f)
				continue
			case opCredit:
				f, err := parseCredit(raw)
				if err != nil {
					rt.fail(err)
					return
				}
				rt.credit(f.H.Tag, f.Credits())
				continue
			}
		}
		rt.base.Send(raw)
	}
}

// enqueue routes one collective frame to its tag queue, maintaining the
// interior-depth observability gauges: coll.queue.depth.max is the
// high-water data-chunk count of any one (link, tag) queue at this
// daemon, coll.link.bytes.max the high-water queued body bytes. End
// markers ride outside the credit window (they carry no payload and
// each stream has exactly one), so the depth gauge excludes them and
// the flow-control invariant is exact: depth ≤ window.
func (rt *connRouter) enqueue(f coll.Frame) {
	rt.mu.Lock()
	q := rt.tagQLocked(f.H.Tag)
	if rt.qBytes == nil {
		rt.qBytes = make(map[uint32]uint64)
	}
	rt.qBytes[f.H.Tag] += uint64(len(f.Body))
	depth := uint64(q.Len() + 1)
	bytes := rt.qBytes[f.H.Tag]
	rt.mu.Unlock()
	if !f.End {
		rt.c.collDepthMax.SetMax(depth)
	}
	rt.c.collBytesMax.SetMax(bytes)
	q.Send(f)
}

// dequeued tells the router one frame left its tag queue (consumed by
// recvTagged), keeping the queued-bytes accounting honest.
func (rt *connRouter) dequeued(f coll.Frame) {
	rt.mu.Lock()
	if n := rt.qBytes[f.H.Tag]; n >= uint64(len(f.Body)) {
		rt.qBytes[f.H.Tag] = n - uint64(len(f.Body))
	}
	rt.mu.Unlock()
}

// tagQ returns (creating on demand) the queue of one tagged stream. On
// a severed router the returned queue is closed, so receivers observe
// the failure instead of parking forever.
func (rt *connRouter) tagQ(tag uint32) *vtime.Chan[coll.Frame] {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.tagQLocked(tag)
}

func (rt *connRouter) tagQLocked(tag uint32) *vtime.Chan[coll.Frame] {
	if rt.tags == nil {
		rt.tags = make(map[uint32]*vtime.Chan[coll.Frame])
	}
	q := rt.tags[tag]
	if q == nil {
		q = vtime.NewChan[coll.Frame](rt.c.p.Sim())
		if rt.closed {
			q.Close()
		}
		rt.tags[tag] = q
	}
	return q
}

// dropTag retires a completed stream's queue so tag state does not
// accumulate across collectives.
func (rt *connRouter) dropTag(tag uint32) {
	rt.mu.Lock()
	delete(rt.tags, tag)
	delete(rt.qBytes, tag)
	rt.mu.Unlock()
}

// gate returns (creating on demand, preloaded with window tokens) the
// send-side credit gate of one tagged stream on this link.
func (rt *connRouter) gate(tag uint32, window int) *creditGate {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.gates == nil {
		rt.gates = make(map[uint32]*creditGate)
	}
	g := rt.gates[tag]
	if g == nil {
		g = newCreditGate(rt.c.p.Sim(), window)
		if rt.closed {
			g.sever()
		}
		rt.gates[tag] = g
	}
	return g
}

// dropGate retires a stream's credit gate once its End frame is on the
// wire; credits still in flight for it are dropped on arrival.
func (rt *connRouter) dropGate(tag uint32) {
	rt.mu.Lock()
	delete(rt.gates, tag)
	rt.mu.Unlock()
}

// credit applies n returned credits to the tag's gate, dropping credits
// for already-retired streams.
func (rt *connRouter) credit(tag uint32, n uint32) {
	rt.mu.Lock()
	g := rt.gates[tag]
	rt.mu.Unlock()
	if g != nil {
		g.credit(int(n))
	}
}

// fail severs the router: the link died (or delivered garbage), so
// every consumer — base receivers, tagged receivers, senders blocked on
// credit — must wake and observe the failure.
func (rt *connRouter) fail(err error) {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	rt.err = err
	// Snapshot under the lock: streams finishing on other goroutines keep
	// retiring entries (dropTag, dropGate) while the queues close below.
	tags := make([]*vtime.Chan[coll.Frame], 0, len(rt.tags))
	for _, q := range rt.tags {
		tags = append(tags, q)
	}
	gates := make([]*creditGate, 0, len(rt.gates))
	for _, g := range rt.gates {
		gates = append(gates, g)
	}
	rt.mu.Unlock()
	rt.base.Close()
	for _, q := range tags {
		q.Close()
	}
	for _, g := range gates {
		g.sever()
	}
}

// takeErr reports why the router severed (ErrSevered-wrapped for a
// clean link death).
func (rt *connRouter) takeErr() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.err == nil || rt.err == ErrSevered {
		return ErrSevered
	}
	return fmt.Errorf("%w: %v", ErrSevered, rt.err)
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
	if _, err := rd.Uint32(); err != nil {
		return coll.Frame{}, err
	}
	hraw, err := rd.Bytes()
	if err != nil {
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
	cf := coll.CreditFrame(tag, n)
	b := lmonp.AppendUint32(nil, opCredit)
	b = lmonp.AppendBytes(b, cf.H.Encode())
	c.creditTxFrames.Inc()
	return c.send(conn, b)
}
