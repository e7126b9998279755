package transport

import (
	"fmt"
	"sync"
	"time"

	"launchmon/internal/lmonp"
	"launchmon/internal/obs"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// Mux is the front-end connection multiplexer: one listener shared by
// every session of one front-end process. An accept loop reads the hello
// frame off each incoming connection and routes it to the owning session's
// endpoint; sessions wait on their own per-role queues, never on the raw
// listener, so concurrent sessions cannot steal each other's connections.
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
// call concurrently with the accept loop; a nil registry detaches.
func (m *Mux) SetMetrics(reg *obs.Registry) {
	m.mu.Lock()
	m.metrics = reg
	m.mu.Unlock()
}

// metric returns the named counter under the registry lock (nil-safe).
func (m *Mux) metric(name string) *obs.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.metrics.Counter(name)
}

// ListenMux opens the process-wide mux on an ephemeral port of host and
// starts its accept loop.
func ListenMux(sim *vtime.Sim, host *simnet.Host) (*Mux, error) {
	l, err := host.Listen(0)
	if err != nil {
		return nil, err
	}
	m := &Mux{sim: sim, l: l, sessions: make(map[int]*Endpoint)}
	sim.Go("transport-mux", m.serve)
	return m, nil
}

// Addr returns the mux's listening address — the single address every
// engine and master daemon of this front end dials.
func (m *Mux) Addr() simnet.Addr { return m.l.Addr() }

// serve accepts connections forever, handing each to its own greeter
// goroutine so a peer that is slow to send its hello cannot head-of-line
// block other sessions' dials.
func (m *Mux) serve() {
	for {
		conn, err := m.l.Accept()
		if err != nil {
			return
		}
		m.sim.Go("transport-mux-hello", func() { m.admit(conn) })
	}
}

// admit reads the hello frame and routes the connection to its session's
// endpoint. Connections for unknown sessions or malformed hellos are
// closed (the dialer observes EOF).
func (m *Mux) admit(conn *simnet.Conn) {
	h, err := ReadHello(conn)
	if err != nil {
		m.metric("mux.reject").Inc()
		conn.Close()
		return
	}
	m.mu.Lock()
	ep := m.sessions[h.Session]
	if ep == nil || ep.closed {
		m.metrics.Counter("mux.reject").Inc()
		m.mu.Unlock()
		conn.Close()
		return
	}
	m.metrics.Counter("mux.accept").Inc()
	// Enqueue while still holding the registry lock so a concurrent
	// Endpoint.Close cannot slip between the lookup and the send (Close
	// drains the queues after deregistering, so the connection is either
	// delivered or closed, never dropped).
	ep.queues[h.Role].Send(conn)
	m.mu.Unlock()
}

// Open registers a session and returns its endpoint. Session IDs must be
// unique within the mux.
func (m *Mux) Open(session int) (*Endpoint, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrMuxClosed
	}
	if m.sessions[session] != nil {
		return nil, fmt.Errorf("%w: id %d", ErrSessionExists, session)
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

// Close stops the accept loop and tears down every endpoint.
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

// Session returns the endpoint's session ID.
func (e *Endpoint) Session() int { return e.session }

// Accept blocks in virtual time until a connection for the given role
// arrives, the timeout elapses, or the endpoint closes. The returned
// connection is framed for LMONP.
func (e *Endpoint) Accept(role Role, timeout time.Duration) (*lmonp.Conn, error) {
	if !role.valid() {
		return nil, fmt.Errorf("transport: accept: invalid role %d", role)
	}
	conn, ok, timedOut := e.queues[role].RecvTimeout(timeout)
	if timedOut {
		return nil, fmt.Errorf("%w: no %v connection for session %d within %v",
			ErrAcceptTimeout, role, e.session, timeout)
	}
	if !ok {
		return nil, ErrEndpointClosed
	}
	return lmonp.NewConn(conn), nil
}

// Drain closes and discards any queued, not-yet-accepted connections for
// the given role, returning how many were dropped. Callers retrying a
// daemon launch use it to shed a late dial left over from a timed-out
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
