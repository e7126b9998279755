package transport

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"launchmon/internal/lmonp"
	"launchmon/internal/obs"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// Mux is the front-end connection multiplexer: one listener shared by
// every session of one front-end process. The scheduler hands it each
// incoming connection and then that connection's hello frame, which routes
// it to the owning session's endpoint; sessions take connections off their
// own per-role queues, never off the raw listener, so concurrent sessions
// cannot steal each other's connections. The mux holds no goroutine.
type Mux struct {
	sim *vtime.Sim
	l   *simnet.Listener

	mu       sync.Mutex
	sessions map[int]*Endpoint
	closed   bool
	metrics  *obs.Registry // nil = observability off
}

// SetMetrics attaches an observability registry: the accept path then
// counts admitted and rejected hellos (mux.accept / mux.reject). Safe to
// call concurrently with admissions; a nil registry detaches.
func (m *Mux) SetMetrics(reg *obs.Registry) {
	m.mu.Lock()
	m.metrics = reg
	m.mu.Unlock()
}

// ListenMux opens the process-wide mux on an ephemeral port of host.
func ListenMux(sim *vtime.Sim, host *simnet.Host) (*Mux, error) {
	l, err := host.Listen(0)
	if err != nil {
		return nil, err
	}
	m := &Mux{sim: sim, l: l, sessions: make(map[int]*Endpoint)}
	l.Handle(m.admit)
	return m, nil
}

// Addr returns the mux's listening address — the single address every
// engine and master daemon of this front end dials.
func (m *Mux) Addr() simnet.Addr { return m.l.Addr() }

// admit takes one incoming connection (or the listener's end) and installs
// a one-shot handler for its hello frame, so a peer that is slow to send —
// or never sends — its hello holds nothing but its own connection.
func (m *Mux) admit(conn *simnet.Conn, err error) {
	if err != nil {
		return
	}
	conn.Handle(func(msg []byte, err error) {
		conn.Unhandle()
		m.route(conn, msg, err)
	})
}

// route reads the hello frame — the whole of the peer's first message —
// and queues the connection at its session's endpoint. Connections for
// unknown sessions or with malformed hellos are closed (the dialer
// observes EOF).
func (m *Mux) route(conn *simnet.Conn, msg []byte, err error) {
	var h Hello
	if err == nil && len(msg) != helloSize {
		err = errBadHello
	}
	if err == nil {
		h, err = ReadHello(bytes.NewReader(msg))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ep := m.sessions[h.Session]
	if err != nil || ep == nil || ep.closed {
		m.metrics.Counter("mux.reject").Inc()
		conn.Close()
		return
	}
	m.metrics.Counter("mux.accept").Inc()
	// Enqueue while still holding the registry lock so a concurrent
	// Endpoint.Close cannot slip between the lookup and the send (Close
	// drains the queues after deregistering, so the connection is either
	// delivered or closed, never dropped).
	ep.queues[h.Role].Send(conn)
}

// Open registers a session and returns its endpoint. Session IDs must be
// unique within the mux.
func (m *Mux) Open(session int) (*Endpoint, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errMuxClosed
	}
	if m.sessions[session] != nil {
		return nil, fmt.Errorf("%w: id %d", errSessionExists, session)
	}
	ep := &Endpoint{mux: m, session: session}
	for _, r := range []Role{RoleEngine, RoleBE, RoleMW} {
		ep.queues[r] = vtime.NewChan[*simnet.Conn](m.sim)
	}
	m.sessions[session] = ep
	return ep, nil
}

// Sessions returns the number of currently registered sessions.
func (m *Mux) Sessions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Close stops the listener and tears down every endpoint.
func (m *Mux) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	eps := make([]*Endpoint, 0, len(m.sessions))
	for _, ep := range m.sessions {
		eps = append(eps, ep)
	}
	m.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	m.l.Close()
}

// Endpoint is one session's demultiplexed view of the mux: a queue of
// accepted connections per dialing role.
type Endpoint struct {
	mux     *Mux
	session int
	queues  [4]*vtime.Chan[*simnet.Conn] // indexed by Role; slot 0 unused
	closed  bool                         // guarded by mux.mu
}

// Accept blocks in virtual time until a connection for the given role
// arrives, the timeout elapses, or the endpoint closes. The returned
// connection is framed for LMONP.
func (e *Endpoint) Accept(role Role, timeout time.Duration) (*lmonp.Conn, error) {
	if !role.valid() {
		return nil, fmt.Errorf("transport: accept: invalid role %d", role)
	}
	conn, ok, timedOut := e.queues[role].RecvTimeout(timeout)
	if timedOut {
		return nil, fmt.Errorf("%w: no %v connection for session %d within %v", errAcceptTimeout, role, e.session, timeout)
	}
	if !ok {
		return nil, errEndpointClosed
	}
	return lmonp.NewConn(conn), nil
}

// Handle is Accept without a blocked goroutine, and without a deadline:
// fn runs once, on the vtime scheduler, with the role's next connection (a
// queued one at once), or with errEndpointClosed when the endpoint closes
// first. fn must not block. One Handle per role may be pending and it may
// not be mixed with Accept; Unhandle withdraws it.
func (e *Endpoint) Handle(role Role, fn func(*lmonp.Conn, error)) {
	e.queues[role].Handle(func(conn *simnet.Conn, ok bool) {
		e.Unhandle(role)
		if !ok {
			fn(nil, errEndpointClosed)
			return
		}
		fn(lmonp.NewConn(conn), nil)
	})
}

// Unhandle withdraws the role's pending Handle, if any: its fn will not
// run, and connections arriving from now on stay queued.
func (e *Endpoint) Unhandle(role Role) { e.queues[role].Unhandle() }

// Drain closes and discards any queued, not-yet-accepted connections for
// the given role, returning how many were dropped. Callers retrying a
// daemon launch use it to shed a late dial left over from a failed
// previous attempt, so the retry cannot bind to the stale connection.
func (e *Endpoint) Drain(role Role) int {
	if !role.valid() {
		return 0
	}
	n := 0
	for {
		conn, ok := e.queues[role].TryRecv()
		if !ok {
			return n
		}
		conn.Close()
		n++
	}
}

// Close deregisters the session from the mux and closes its queues; any
// queued, never-accepted connections are closed so their dialers observe
// EOF instead of hanging.
func (e *Endpoint) Close() {
	m := e.mux
	m.mu.Lock()
	if e.closed {
		m.mu.Unlock()
		return
	}
	e.closed = true
	delete(m.sessions, e.session)
	m.mu.Unlock()
	for _, r := range []Role{RoleEngine, RoleBE, RoleMW} {
		e.Drain(r)
		e.queues[r].Close()
	}
}
