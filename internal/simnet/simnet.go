// Package simnet provides a simulated TCP-like network running in virtual
// time (internal/vtime). Hosts own listeners; Dial establishes a bidirected
// connection that carries whole messages: one Send (or Write) on one end is
// one RecvMessage or Handle delivery on the other, which is how every
// LaunchMON protocol frames its traffic, and every transfer is charged
// latency + size/bandwidth in virtual time.
//
// The cost model per message (one Send or Write call) is:
//
//	start  = max(now, lastSendDone)   // per-direction serialization
//	txDone = start + size/bandwidth
//	arrive = txDone + latency
//
// which preserves FIFO ordering per connection and models a dedicated
// full-duplex link per connection (adequate for the paper's experiments,
// which are dominated by per-node spawn costs and message counts/sizes,
// not by shared-fabric congestion).
package simnet

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"launchmon/internal/vtime"
)

// The interconnect cost model: a 2008-era Infiniband cluster (4x DDR),
// ~30 µs MPI-level latency, ~1.2 GB/s per stream, and fast local loopback.
// Latency is one way; Bandwidth is bytes/second on one connection.
const (
	Latency           = 30 * time.Microsecond // between distinct hosts
	Bandwidth         = 1.2e9
	LoopbackLatency   = 6 * time.Microsecond // within one host
	loopbackBandwidth = 4e9
)

// Options configure fault injection on the network.
type Options struct {
	// SlowHosts maps host names to a slowdown factor (> 1): connections
	// touching a slow host see their latency multiplied and bandwidth
	// divided by the factor (the fault model's slow-node knob). The larger
	// factor wins when both endpoints are slow.
	SlowHosts map[string]float64
}

// Addr identifies a network endpoint.
type Addr struct {
	Host string
	Port int
}

// String renders the address as host:port.
func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.Host, a.Port) }

// ParseAddr parses the host:port form String renders (the port follows
// the last colon).
func ParseAddr(s string) (Addr, error) {
	if i := strings.LastIndexByte(s, ':'); i >= 0 {
		if port, err := strconv.Atoi(s[i+1:]); err == nil {
			return Addr{Host: s[:i], Port: port}, nil
		}
	}
	return Addr{}, fmt.Errorf("simnet: bad address %q", s)
}

// Stats aggregates traffic counters for the whole network.
type Stats struct {
	Messages int64 // Send/Write calls delivered
	Bytes    int64 // payload bytes delivered
	Dials    int64 // successful connections
}

// Network is a set of hosts in one virtual-time simulation.
type Network struct {
	sim  *vtime.Sim
	opts Options

	mu        sync.Mutex
	hosts     map[string]*Host
	stats     Stats
	downLinks map[[2]string]bool // severed host pairs (normalized order)
}

// New creates an empty network bound to sim.
func New(sim *vtime.Sim, opts Options) *Network {
	return &Network{
		sim:       sim,
		opts:      opts,
		hosts:     make(map[string]*Host),
		downLinks: make(map[[2]string]bool),
	}
}

// linkKey normalizes an unordered host pair.
func linkKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Host returns the host with the given name, creating it if needed.
func (n *Network) Host(name string) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.hosts[name]
	if !ok {
		h = &Host{net: n, name: name, nextPort: 40000}
		n.hosts[name] = h
	}
	return h
}

// KillHost marks a host dead: its listeners close, new dials to or from it
// fail with ErrPeerDead, and every established connection touching it is
// severed — the remote peer reads any in-flight data, then observes
// ErrPeerDead (after the link latency drains) instead of a clean EOF.
// Listeners close in port order and connections sever in the order they
// were established, so what the survivors see, and in which order among
// equal-latency peers, is a function of the node and not of map iteration.
// Killing an unknown or already-dead host is a no-op.
func (n *Network) KillHost(name string) {
	n.mu.Lock()
	h := n.hosts[name]
	if h == nil || h.dead {
		n.mu.Unlock()
		return
	}
	h.dead = true
	listeners := append([]*Listener(nil), h.listeners...)
	var conns []*Conn
	for c := h.conns; c != nil; c = c.next {
		conns = append(conns, c)
	}
	n.mu.Unlock()

	for _, l := range listeners {
		l.Close()
	}
	for _, c := range conns {
		c.sever()
	}
}

// DropLink severs the link between hosts a and b: in-flight and future
// messages between them are silently discarded (neither side learns — the
// failure-detection layer's heartbeat-miss case) and new dials across the
// link fail with errLinkDown.
func (n *Network) DropLink(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.downLinks[linkKey(a, b)] = true
}

// RestoreLink brings a dropped link back up. Established connections
// resume delivering (messages dropped while down stay lost).
func (n *Network) RestoreLink(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.downLinks, linkKey(a, b))
}

// openLocked initializes a new conn endpoint where it lies and appends it to
// its host's list, the index fault injection walks. Caller holds n.mu
// (registration must be atomic with the dead-host check in Dial, or a racing
// KillHost misses the new conn).
func (c *Conn) openLocked(h *Host, peer *Conn) {
	c.host, c.peer = h, peer
	c.in.Init(h.net.sim)
	c.listed = true
	if c.prev = h.lastConn; c.prev != nil {
		c.prev.next = c
	} else {
		h.conns = c
	}
	h.lastConn = c
}

// unregister drops a closed or severed conn endpoint from its host's list;
// a no-op the second time.
func (c *Conn) unregister() {
	h := c.host
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	if !c.listed {
		return
	}
	c.listed = false
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		h.conns = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	} else {
		h.lastConn = c.prev
	}
	c.prev, c.next = nil, nil
}

// link is the cost model of a connection between hosts a and b: the
// interconnect's latency and bandwidth, or the loopback's within one host,
// scaled by the slower end's factor. A connection's two endpoints read it
// from their hosts on each send rather than hold it: a parked daemon keeps
// its links for the life of a session.
func (o Options) link(a, b string) (lat time.Duration, bw float64) {
	lat, bw = Latency, Bandwidth
	if a == b {
		lat, bw = LoopbackLatency, loopbackBandwidth
	}
	if f := o.slowFactor(a, b); f > 1 {
		lat = time.Duration(float64(lat) * f)
		bw /= f
	}
	return lat, bw
}

// slowFactor returns the effective slowdown for a conn between two hosts
// (1 when neither is slow).
func (o Options) slowFactor(a, b string) float64 {
	f := 1.0
	if s, ok := o.SlowHosts[a]; ok && s > f {
		f = s
	}
	if s, ok := o.SlowHosts[b]; ok && s > f {
		f = s
	}
	return f
}

// Host is a network endpoint that can listen and dial. Every node keeps
// one for the life of the simulation, so it holds its open listeners in a
// port-ordered slice, not a map: a node listens on a port or two.
type Host struct {
	net       *Network
	name      string
	listeners []*Listener // open, in port order; guarded by net.mu
	conns     *Conn       // live conn endpoints, oldest first, linked through Conn.next
	lastConn  *Conn
	nextPort  int32
	dead      bool // killed by KillHost
}

// listenerLocked returns the open listener on port, nil when there is none,
// and the index in h.listeners where it is or would go. Caller holds net.mu.
func (h *Host) listenerLocked(port int) (*Listener, int) {
	i, found := slices.BinarySearchFunc(h.listeners, port, func(l *Listener, port int) int { return l.addr.Port - port })
	if !found {
		return nil, i
	}
	return h.listeners[i], i
}

// Errors returned by the network layer.
var (
	errPortInUse     = errors.New("simnet: port already in use")
	errConnRefused   = errors.New("simnet: connection refused")
	errClosed        = errors.New("simnet: use of closed connection")
	errListenerClose = errors.New("simnet: listener closed")
	// ErrPeerDead is returned by reads and writes on connections whose
	// remote (or local) host has been killed, once any in-flight data has
	// drained — the simulated analogue of ECONNRESET after a node loss.
	ErrPeerDead = errors.New("simnet: peer host is dead")
	// errLinkDown is returned when dialing across a dropped link.
	errLinkDown = errors.New("simnet: link is down")
)

// Listen opens a listener on the given port; port 0 selects an ephemeral
// port.
func (h *Host) Listen(port int) (*Listener, error) {
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	if h.dead {
		return nil, fmt.Errorf("%w: %s", ErrPeerDead, h.name)
	}
	if port == 0 {
		port = int(h.nextPort)
		for l, _ := h.listenerLocked(port); l != nil; l, _ = h.listenerLocked(port) {
			port++
		}
		h.nextPort = int32(port + 1)
	}
	old, i := h.listenerLocked(port)
	if old != nil {
		return nil, fmt.Errorf("%w: %s:%d", errPortInUse, h.name, port)
	}
	l := &Listener{
		host:     h,
		addr:     Addr{Host: h.name, Port: port},
		incoming: vtime.NewChan[*Conn](h.net.sim),
	}
	if h.listeners == nil {
		// Room for a tool daemon's port beside the RM daemon's.
		h.listeners = make([]*Listener, 0, 2)
	}
	h.listeners = slices.Insert(h.listeners, i, l)
	return l, nil
}

// Listener accepts incoming connections on one port.
type Listener struct {
	host     *Host
	addr     Addr
	incoming *vtime.Chan[*Conn]
	closed   bool
}

// Addr returns the listening address.
func (l *Listener) Addr() Addr { return l.addr }

// Accept blocks in virtual time for the next incoming connection.
func (l *Listener) Accept() (*Conn, error) {
	c, ok := l.incoming.Recv()
	if !ok {
		return nil, errListenerClose
	}
	return c, nil
}

// AwaitAccept is Accept for a record that no goroutine carries
// (vtime.Chan.Await): the next incoming connection, or errListenerClose once
// the listener has closed; when neither has come, wait is true and r's event
// fires once one has.
func (l *Listener) AwaitAccept(r *vtime.Resume) (c *Conn, wait bool, err error) {
	c, ok, wait := l.incoming.Await(r)
	if !ok && !wait {
		return nil, false, errListenerClose
	}
	return c, wait, nil
}

// Handle switches the listener to event-driven accept: fn runs on the
// vtime scheduler for every incoming connection (queued ones first, in
// arrival order), and once with errListenerClose after Close. It replaces a
// parked accept-loop goroutine; fn must not block. Handle may not be mixed
// with Accept and may be installed once.
func (l *Listener) Handle(fn func(*Conn, error)) {
	l.incoming.Handle(func(c *Conn, ok bool) {
		if !ok {
			fn(nil, errListenerClose)
			return
		}
		fn(c, nil)
	})
}

// Close stops the listener; blocked Accept calls return errListenerClose,
// and connections never accepted are closed (severed, on a dead host).
func (l *Listener) Close() {
	l.host.net.mu.Lock()
	if !l.closed {
		l.closed = true
		h := l.host
		_, i := h.listenerLocked(l.addr.Port)
		h.listeners = slices.Delete(h.listeners, i, i+1)
	}
	dead := l.host.dead // KillHost severs them with the rest
	l.host.net.mu.Unlock()
	l.incoming.Close()
	for c, ok := l.incoming.TryRecv(); ok && !dead; c, ok = l.incoming.TryRecv() {
		c.Close()
	}
}

// syn is a dialed connection's far end reaching the listener: queued for
// Accept, or closed, as Close closes one it never accepted, when the
// listener has closed since the dial, so the dialer's end ends too.
func (l *Listener) syn(b *Conn) {
	l.host.net.mu.Lock()
	closed, dead := l.closed, l.host.dead
	l.host.net.mu.Unlock()
	switch {
	case !closed:
		l.incoming.Send(b)
	case !dead: // KillHost severs it with the rest
		b.Close()
	}
}

// Dial connects from h to addr, blocking for the connection handshake
// (one round trip). It fails immediately when no listener exists, when
// either host is dead, or when the link between them is down.
func (h *Host) Dial(addr Addr) (*Conn, error) {
	a, b, l, lat, err := h.dialSetup(addr)
	if err != nil {
		return nil, err
	}
	// SYN reaches the listener after one latency; the dialer's connect
	// completes after a full round trip.
	h.net.sim.After(lat, func() { l.syn(b) })
	h.net.sim.Sleep(2 * lat)
	return a, nil
}

// DialAsync is Dial without a blocked goroutine: it fails at once where Dial
// does, or returns the connection, which its caller uses once done fires on
// the vtime scheduler after the same one-round-trip handshake. done must not
// block.
func (h *Host) DialAsync(addr Addr, done vtime.Event) (*Conn, error) {
	a, b, l, lat, err := h.dialSetup(addr)
	if err != nil {
		return nil, err
	}
	h.net.sim.After(lat, func() { l.syn(b) })
	h.net.sim.AfterEvent(2*lat, done)
	return a, nil
}

// dialSetup performs the synchronous half of a dial — error checks, conn
// pair creation, registration — and returns the pieces both Dial flavors
// schedule from.
func (h *Host) dialSetup(addr Addr) (a, b *Conn, l *Listener, lat time.Duration, err error) {
	n := h.net
	n.mu.Lock()
	dst := n.hosts[addr.Host]
	if h.dead || dst != nil && dst.dead {
		n.mu.Unlock()
		return nil, nil, nil, 0, fmt.Errorf("%w: %s", ErrPeerDead, addr)
	}
	if n.downLinks[linkKey(h.name, addr.Host)] {
		n.mu.Unlock()
		return nil, nil, nil, 0, fmt.Errorf("%w: %s <-> %s", errLinkDown, h.name, addr.Host)
	}
	if dst == nil {
		n.mu.Unlock()
		return nil, nil, nil, 0, fmt.Errorf("%w: no host %q", errConnRefused, addr.Host)
	}
	l, _ = dst.listenerLocked(addr.Port)
	if l == nil {
		n.mu.Unlock()
		return nil, nil, nil, 0, fmt.Errorf("%w: %s", errConnRefused, addr)
	}
	lat, _ = n.opts.link(h.name, addr.Host)
	// One allocation is the whole connection: both endpoints, with their
	// inbound queues and what they have on the wire by value.
	pair := new([2]Conn)
	a, b = &pair[0], &pair[1]
	a.openLocked(h, b)
	b.openLocked(dst, a)
	n.stats.Dials++
	n.mu.Unlock()
	return a, b, l, lat, nil
}

// Conn is one direction-pair stream connection endpoint. Both endpoints
// are one allocation, so what one weighs is paid twice on every link of
// every daemon for the life of a session; its cost model is its hosts'
// (Options.link), not a copy of its own.
type Conn struct {
	host *Host // the local end; the remote one is peer.host

	in vtime.Chan[[]byte] // arriving messages

	peer       *Conn
	prev, next *Conn // host.conns; guarded by net.mu, as is listed

	mu       sync.Mutex
	sendDone time.Duration // virtual time the previous Send finishes on the wire
	wire     wire          // sent, not yet arrived at peer
	closed   bool
	peerDead bool // the other endpoint's host was killed (reads/writes fail)
	listed   bool
}

// link is the connection's latency and bandwidth.
func (c *Conn) link() (time.Duration, float64) {
	return c.host.net.opts.link(c.host.name, c.peer.host.name)
}

// wire is what one direction has in flight, oldest first. Arrival instants
// never decrease along a direction (each is the previous sendDone or later,
// plus the same latency) and the scheduler breaks ties in scheduling order,
// so the n-th arrival event to fire always finds the n-th message at the
// head, and an arrival carries nothing of its own. Nearly always one message
// is in flight and lives inline; a burst spills into a slice that is dropped
// as it drains, so an idle connection retains nothing.
type wire struct {
	n     int      // messages in flight
	first []byte   // the oldest, when n > 0
	rest  [][]byte // those behind it
}

func (w *wire) push(msg []byte) {
	if w.n == 0 {
		w.first = msg
	} else {
		w.rest = append(w.rest, msg)
	}
	w.n++
}

func (w *wire) pop() []byte {
	msg := w.first
	if w.n--; w.n == 0 {
		w.first, w.rest = nil, nil
	} else {
		w.first, w.rest[0], w.rest = w.rest[0], nil, w.rest[1:]
	}
	return msg
}

// Send hands msg to the peer as one network message, taking ownership of
// it: the very slice is what the peer's RecvMessage or Handle delivers, so
// the caller must not write to it afterwards (it may send the same buffer
// on any number of connections, and receivers may alias it but never write
// to it either). Send returns immediately (socket-buffer
// semantics); delivery is charged serialization + latency in virtual time.
// Messages crossing a dropped link are silently discarded at delivery
// time; sends on a severed (dead-host) connection fail with ErrPeerDead.
func (c *Conn) Send(msg []byte) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errClosed
	}
	if c.peerDead {
		c.mu.Unlock()
		return ErrPeerDead
	}
	sim := c.host.net.sim
	now := sim.Now()
	start := now
	if c.sendDone > start {
		start = c.sendDone
	}
	lat, bw := c.link()
	tx := time.Duration(float64(len(msg)) / bw * float64(time.Second))
	c.sendDone = start + tx
	c.wire.push(msg)
	sim.AfterEvent(c.sendDone+lat-now, (*arrival)(c))
	c.mu.Unlock()
	return nil
}

// arrival, fin and rst are a Conn as the three events it schedules at its
// peer: the message at the head of the wire, the end of the stream after
// Close, the end of the stream after sever.
type (
	arrival Conn
	fin     Conn
	rst     Conn
)

// Fire delivers the head of the wire, unless the packet vanishes: the link
// is down or the destination died while it was in flight.
func (a *arrival) Fire() {
	c := (*Conn)(a)
	c.mu.Lock()
	msg := c.wire.pop()
	c.mu.Unlock()
	n := c.host.net
	n.mu.Lock()
	lost := c.peer.host.dead || len(n.downLinks) > 0 && n.downLinks[linkKey(c.host.name, c.peer.host.name)]
	if !lost {
		n.stats.Messages++
		n.stats.Bytes += int64(len(msg))
	}
	n.mu.Unlock()
	if !lost {
		c.peer.in.Send(msg)
	}
}

func (f *fin) Fire() { f.peer.in.Close() }

func (r *rst) Fire() {
	peer := r.peer
	peer.unregister()
	peer.mu.Lock()
	if peer.closed {
		// The survivor already closed its side; nothing to observe.
		peer.mu.Unlock()
		return
	}
	peer.peerDead = true
	peer.mu.Unlock()
	peer.in.Close()
}

// Write is Send for io.Writer callers, who keep ownership of p: it sends a
// private copy.
func (c *Conn) Write(p []byte) (int, error) {
	buf := make([]byte, len(p))
	copy(buf, p)
	if err := c.Send(buf); err != nil {
		return 0, err
	}
	return len(p), nil
}

// RecvMessage returns the next delivered message (one peer Send) whole —
// the sender's own buffer, to be read and never written — blocking in
// virtual time. Once the connection has ended and what arrived before has
// been taken, it returns EndErr: io.EOF after the peer closes, ErrPeerDead
// on a severed connection.
func (c *Conn) RecvMessage() ([]byte, error) {
	buf, ok := c.in.Recv()
	if !ok {
		return nil, c.EndErr()
	}
	return buf, nil
}

// AwaitMessage is RecvMessage for a record that no goroutine carries
// (vtime.Chan.Await): the next message delivered unread, or the connection's
// end (EndErr); when neither has come, wait is true and r's event fires once
// one has.
func (c *Conn) AwaitMessage(r *vtime.Resume) (msg []byte, wait bool, err error) {
	msg, ok, wait := c.in.Await(r)
	if !ok && !wait {
		return nil, false, c.EndErr()
	}
	return msg, wait, nil
}

// TryRecvMessage is RecvMessage without the wait: ok is false when no
// message has been delivered unread, whether or not the connection ended.
func (c *Conn) TryRecvMessage() (msg []byte, ok bool) {
	return c.in.TryRecv()
}

// EndErr is what the receive side reports once the inbound queue has
// closed and drained: ErrPeerDead on a severed connection, io.EOF after a
// clean close.
func (c *Conn) EndErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.peerDead {
		return ErrPeerDead
	}
	return io.EOF
}

// Handle switches the connection's receive side to event-driven delivery:
// fn runs on the vtime scheduler once per delivered message (one Send or
// Write call on the peer = one callback), in arrival order under the
// scheduler's deterministic (time, seq) tie-break. After the peer closes
// (or the link severs) and queued messages drain, fn fires once with err —
// io.EOF for a clean close, ErrPeerDead for a severed connection. It
// replaces a goroutine parked in RecvMessage; fn must not block. Unhandle
// hands the receive side back to RecvMessage — a framer that owns only one
// phase of the connection's life (e.g. a bootstrap-time stream) detaches at
// its final frame, leaving later arrivals queued for whoever reads next.
func (c *Conn) Handle(fn func(msg []byte, err error)) {
	c.in.Handle(func(buf []byte, ok bool) {
		if !ok {
			fn(nil, c.EndErr())
			return
		}
		fn(buf, nil)
	})
}

// HandleQueue is Handle with the inbound queue's own callback: fn(msg,
// true) once per delivered message, then fn(nil, false) once the stream
// has ended, EndErr saying why. Handle wraps its fn in one object more; a
// handler installed on every tree link of a parked daemon does without it.
func (c *Conn) HandleQueue(fn func(msg []byte, ok bool)) { c.in.Handle(fn) }

// Unhandle detaches the message handler installed by Handle and returns
// the connection to RecvMessage delivery. Messages that arrived but were
// not yet delivered to the handler stay queued. Call it from the handler
// itself (on the scheduler goroutine).
func (c *Conn) Unhandle() { c.in.Unhandle() }

// Peer names the host at the connection's other end.
func (c *Conn) Peer() string { return c.peer.host.name }

// Sever force-severs the connection as if this endpoint's host died:
// local reads/writes fail at once with ErrPeerDead, and the remote peer
// observes ErrPeerDead after in-flight data (and one link latency)
// drains. It is the per-connection slice of KillHost, used by process
// (rather than node) fault injection: a killed process's adopted
// connections sever without taking the whole host down. Idempotent; safe
// on closed connections.
func (c *Conn) Sever() { c.sever() }

// sever marks this endpoint's host dead: local reads/writes fail at once,
// and the remote peer observes ErrPeerDead after the in-flight data (and
// one link latency) drains. Idempotent; safe on closed connections.
func (c *Conn) sever() {
	c.mu.Lock()
	if c.closed || c.peerDead {
		c.mu.Unlock()
		return
	}
	// The local side belongs to the dead host: fail its I/O immediately.
	c.peerDead = true
	c.shutLocked((*rst)(c))
}

// Close shuts down the local endpoint; after one latency the peer observes
// EOF (once queued data drains). The local side's blocked readers wake
// with EOF too, once buffered data is consumed.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.shutLocked((*fin)(c))
	return nil
}

// shutLocked ends the local endpoint, which the caller has marked closed
// or severed under c.mu (released here), and fires atPeer at the instant
// the end of the stream reaches the other side: one latency behind
// whatever is still on the wire, so it never overtakes in-flight data.
func (c *Conn) shutLocked(atPeer vtime.Event) {
	sim := c.host.net.sim
	now := sim.Now()
	end := c.sendDone
	if end < now {
		end = now
	}
	c.mu.Unlock()
	c.in.Close()
	c.unregister()
	lat, _ := c.link()
	sim.AfterEvent(end+lat-now, atPeer)
}
