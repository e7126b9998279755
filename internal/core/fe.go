package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/engine"
	"launchmon/internal/health"
	"launchmon/internal/iccl"
	"launchmon/internal/lmonp"
	"launchmon/internal/obs"
	"launchmon/internal/proctab"
	"launchmon/internal/rm"
	"launchmon/internal/simnet"
	"launchmon/internal/transport"
	"launchmon/internal/vtime"
)

// Setup installs LaunchMON onto a cluster for the given resource manager:
// it registers the engine executable. Tools call it once before starting
// their front ends.
func Setup(cl *cluster.Cluster, mgr rm.Manager) {
	engine.Install(cl, mgr)
}

// Options parameterize session creation.
type Options struct {
	// Job describes the application to launch (LaunchAndSpawn only).
	Job rm.JobSpec
	// JobID names the running job to attach to (AttachAndSpawn only).
	JobID int
	// Daemon describes the tool's back-end daemon.
	Daemon rm.DaemonSpec
	// FEData is tool bootstrap data piggybacked on the FE→master handshake
	// and broadcast to every back-end daemon together with the RPDTAB.
	FEData []byte
	// ICCLFanout is the back-end tree fanout; 0 means flat (1-deep).
	ICCLFanout int
	// ProctabChunkBytes bounds one RPDTAB chunk payload on every LMONP
	// transfer of this session (engine→FE and FE→master daemons);
	// 0 selects proctab.DefaultChunkBytes.
	ProctabChunkBytes int
	// CollChunkBytes bounds one chunk body on every link of the session's
	// collective tool-data plane (Session.Broadcast/Scatter/Gather/Reduce
	// and the BE.Collective mirror); 0 selects coll.DefaultChunkBytes.
	CollChunkBytes int
	// CollWindow is the per-(link, tag) outstanding-chunk credit window of
	// the collective plane's flow control: a sender holds at most CollWindow
	// chunks of one tagged stream in flight per tree link, so interior
	// queue depth is bounded by CollWindow x CollChunkBytes regardless of
	// daemon count or subtree skew. 0 selects coll.DefaultWindow; negative
	// values are rejected. Planted into daemon environments as
	// LMON_COLL_WINDOW.
	CollWindow int
	// SeedMode selects the session-seed (RPDTAB + FEData) distribution
	// pipeline, and with it per-daemon RPDTAB retention: SeedCutThrough
	// (the default) streams rank slices and keeps the full table once per
	// session in a shared index; the serialized SeedStoreForward baseline
	// retains the full table at every daemon. See the SeedMode constants.
	SeedMode SeedMode
	// Timeout bounds (in virtual time) how long the front end waits for
	// the engine and the master daemon to connect; daemons that crash
	// before dialing in surface as an error instead of a hang. Zero means
	// the default of 10 minutes.
	Timeout time.Duration
	// JoinTimeout bounds (in virtual time) how long each bootstrapping
	// daemon waits for any one child to join the ICCL tree and for its
	// subtree's ready report: a daemon that dies before dialing its parent
	// then surfaces as a subtree-failure error cascading to the front end
	// instead of a hang. Zero (the default) disables the deadline — joins
	// legitimately take a long wall of virtual time at large K, so the
	// bound is opt-in and should comfortably exceed the expected spawn
	// wave (Health.Period x Miss is a reasonable floor, not a default).
	JoinTimeout time.Duration
	// Health configures the session's failure-detection subsystem
	// (internal/health). The zero value disables it: daemon loss then
	// surfaces only through connection errors at the master.
	Health HealthOptions
	// Obs enables the session observability plane (internal/obs): FE
	// spans + instants (Session.WriteTrace), per-link metrics at every
	// daemon (planted via LMON_OBS), and tree-harvested metric snapshots
	// (Session.MetricsSnapshot). Off by default; LaunchMW inherits the
	// session's setting.
	Obs ObsMode
}

// HealthOptions parameterize per-session failure detection: the daemons
// run heartbeats over the established ICCL tree links, and daemon/node
// loss is reported to the front end as DaemonExited status events within
// roughly Period x Miss.
type HealthOptions struct {
	// Period between daemon heartbeats; 0 disables the subsystem.
	Period time.Duration
	// Miss is how many consecutive periods a daemon may miss before it is
	// declared dead (default 3).
	Miss int
}

const defaultSessionTimeout = 10 * time.Minute

// FrontEnd is the per-process LaunchMON front-end handle: it owns the one
// transport mux every session of this tool process shares. Any number of
// sessions may be created concurrently from separate goroutines; the mux
// routes each engine / master-daemon dial to its owning session by the
// session ID in the transport hello, so interleaved sessions never cross.
type FrontEnd struct {
	p   *cluster.Proc
	mux *transport.Mux
}

// feRegistry maps FE processes to their FrontEnd so the package-level
// LaunchAndSpawn/AttachAndSpawn entry points share one mux per process.
var (
	feRegMu sync.Mutex
	feReg   = make(map[*cluster.Proc]*FrontEnd)
)

// NewFrontEnd returns the process-wide front-end handle for p, creating
// its transport mux on first use.
func NewFrontEnd(p *cluster.Proc) (*FrontEnd, error) {
	feRegMu.Lock()
	defer feRegMu.Unlock()
	if fe, ok := feReg[p]; ok {
		return fe, nil
	}
	mux, err := transport.ListenMux(p.Sim(), p.Host())
	if err != nil {
		return nil, err
	}
	fe := &FrontEnd{p: p, mux: mux}
	feReg[p] = fe
	// Reap the mux (and the registry entry) when the process exits, so
	// long simulations with many tool processes do not accumulate muxes.
	p.Sim().Go("fe-mux-reaper", func() {
		p.Wait()
		feRegMu.Lock()
		delete(feReg, p)
		feRegMu.Unlock()
		mux.Close()
	})
	return fe, nil
}

// Mux exposes the front end's transport mux (tests and diagnostics).
func (fe *FrontEnd) Mux() *transport.Mux { return fe.mux }

// Session binds one job and its daemon sets (paper §3.2): the handle all
// other FE operations take. A session's exported methods are safe to call
// from the goroutine that created it; distinct sessions of one front end
// are fully independent and may run concurrently.
type Session struct {
	ID int

	p   *cluster.Proc
	fe  *FrontEnd
	ep  *transport.Endpoint
	eng *lmonp.Conn
	be  feFabric // back-end fabric (up once launch completes)
	mw  feFabric // middleware fabric (up after LaunchMW)

	tab        proctab.Table
	daemons    []DaemonInfo
	timeout    time.Duration
	chunkBytes int
	collChunk  int    // collective-plane chunk bound (0 = coll default)
	collWindow int    // collective-plane credit window (0 = coll default)
	userTags   uint32 // AllocTag counter (guarded by mu)

	// Timeline holds the merged e0..e11 critical-path marks for this
	// session (paper Figure 2); consumed by the performance model.
	Timeline engine.Timeline

	// Observability plane (nil = Options.Obs off). obsReg is the FE-local
	// metrics registry; obsRec records FE spans and instants; obsHarvest
	// stashes the latest tree-harvested snapshot per fabric.
	obsMode    ObsMode
	obsReg     *obs.Registry
	obsRec     *obs.Recorder
	obsMu      sync.Mutex
	obsHarvest map[string]obs.Snapshot

	// mu guards the lifecycle flags and middleware state below against
	// concurrent session operations.
	mu          sync.Mutex
	mwInfos     []DaemonInfo
	mwLaunching bool
	established bool // launch completed; conns and watchers are live
	detached    bool
	killed      bool
	faultDetail string // why the watchdog tore the session down ("" = no fault)

	// Fault subsystem state: once established, dedicated watcher
	// goroutines own all reads of the engine and master connections,
	// demultiplexing synchronous status replies and tool data from
	// asynchronous status events (job exit, daemon loss).
	engStatus *vtime.Chan[[]byte]   // engine TypeStatus payloads
	engToken  *vtime.Chan[struct{}] // serializes engine request/reply exchanges

	// Status-event dispatch: evQ feeds the dispatcher goroutine until it
	// has delivered SessionTornDown, after which evLog (non-nil from then
	// on, guarded by mu) serves late registrations.
	evQ   *vtime.Chan[sessionEvOp]
	evLog []health.Event
}

// sessionEvOp is one unit of work for the session's event dispatcher:
// either an event to deliver or a callback to register (and replay to).
type sessionEvOp struct {
	ev *health.Event
	cb func(health.Event)
}

// ErrSessionClosed is returned by operations on a finished session.
var ErrSessionClosed = errors.New("core: session detached or killed")

// LaunchAndSpawn launches a new job under tool control and co-locates the
// tool's daemons with it in a single operation — the paper's primary FE
// service, whose critical path is modeled in §4 — creating (or reusing)
// the calling process's front-end handle. Concurrent calls from one
// process share a single transport mux.
func LaunchAndSpawn(p *cluster.Proc, opts Options) (*Session, error) {
	return startSessionOn(p, opts, false)
}

// AttachAndSpawn attaches to the running job opts.JobID and co-locates the
// tool's daemons with its tasks.
func AttachAndSpawn(p *cluster.Proc, opts Options) (*Session, error) {
	return startSessionOn(p, opts, true)
}

func startSessionOn(p *cluster.Proc, opts Options, attach bool) (*Session, error) {
	fe, err := NewFrontEnd(p)
	if err != nil {
		return nil, err
	}
	return startSession(fe, opts, attach)
}

func startSession(fe *FrontEnd, opts Options, attach bool) (*Session, error) {
	p := fe.p
	sim := p.Sim()
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = defaultSessionTimeout
	}
	// Reject sizes the wire form cannot carry before they silently
	// truncate through the request's uint32 (the engine enforces the same
	// ceiling on its side).
	if opts.ProctabChunkBytes < 0 || opts.ProctabChunkBytes > 1<<30 {
		return nil, fmt.Errorf("core: ProctabChunkBytes %d out of range [0, 2^30]", opts.ProctabChunkBytes)
	}
	// Cap at half the LMONP payload ceiling so a chunk plus its header
	// always fits one message — a bound the wire would otherwise only
	// enforce mid-transfer, with the session already up.
	if opts.CollChunkBytes < 0 || opts.CollChunkBytes > lmonp.MaxPayload/2 {
		return nil, fmt.Errorf("core: CollChunkBytes %d out of range [0, %d]", opts.CollChunkBytes, lmonp.MaxPayload/2)
	}
	if opts.CollWindow < 0 {
		return nil, fmt.Errorf("core: CollWindow %d is negative (0 selects the default window)", opts.CollWindow)
	}
	s := &Session{
		ID:         nextSessionID(),
		p:          p,
		fe:         fe,
		timeout:    timeout,
		chunkBytes: opts.ProctabChunkBytes,
		collChunk:  opts.CollChunkBytes,
		collWindow: opts.CollWindow,
		obsMode:    opts.Obs,
	}
	s.be = feFabric{s: s, prof: beFabric}
	s.mw = feFabric{s: s, prof: mwFabric}
	if opts.Obs.enabled() {
		s.obsReg = obs.NewRegistry()
		s.obsRec = obs.NewRecorder(sim.Now)
		// The mux is process-wide; with several concurrent obs-on sessions
		// the accept/reject counters land in whichever registry attached
		// last (they are process-level admission counts either way).
		fe.mux.SetMetrics(s.obsReg)
	}
	launchSpan := s.obsRec.Start("launch-and-spawn", -1)
	s.Timeline.Mark(engine.MarkE0, sim.Now())
	p.Compute(feStartCost)

	ep, err := fe.mux.Open(s.ID)
	if err != nil {
		return nil, err
	}
	s.ep = ep
	feAddr := fe.mux.Addr().String()

	// Spawn the engine co-located with the RM process (same node). It
	// dials back through the mux, identified by the session hello.
	if _, err := p.Spawn(cluster.Spec{
		Exe: engine.ExeName,
		Env: map[string]string{
			engine.EnvFEAddr:  feAddr,
			engine.EnvSession: encodeSessionID(s.ID),
		},
	}); err != nil {
		s.close()
		return nil, fmt.Errorf("core: spawning engine: %w", err)
	}
	engConn, err := ep.Accept(transport.RoleEngine, timeout)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("core: engine did not connect: %w", err)
	}
	s.eng = engConn

	daemon := opts.Daemon
	daemon.Env = bootEnv{
		feAddr: feAddr, session: s.ID,
		tree: iccl.Config{
			Port: icclPortFor(s.ID, false), Fanout: opts.ICCLFanout, JoinTimeout: opts.JoinTimeout,
		},
		collChunk: opts.CollChunkBytes, collWindow: opts.CollWindow, proctabChunk: opts.ProctabChunkBytes,
		seedMode: opts.SeedMode, obs: opts.Obs, health: opts.Health,
	}.plant(daemon.Env, beFabric)

	req := &lmonp.Msg{Class: lmonp.ClassFEEngine, Type: lmonp.TypeLaunchReq}
	if attach {
		req.Type = lmonp.TypeAttachReq
		req.Payload = engine.EncodeAttachReq(engine.AttachReq{
			JobID: opts.JobID, Daemon: daemon, ChunkBytes: opts.ProctabChunkBytes,
		})
	} else {
		req.Payload = engine.EncodeLaunchReq(engine.LaunchReq{
			Job: opts.Job, Daemon: daemon, ChunkBytes: opts.ProctabChunkBytes,
		})
	}
	if err := s.eng.Send(req); err != nil {
		s.close()
		return nil, err
	}

	// Distribute the session seed (RPDTAB + FEData) and complete the
	// FE↔master handshake under the selected pipeline.
	if err := s.launchSeed(opts); err != nil {
		s.close()
		return nil, err
	}

	p.Compute(feFinishCost)
	s.Timeline.Mark(engine.MarkE11, sim.Now())
	launchSpan.End()

	// The session is up: hand ownership of both connections' read sides to
	// watcher goroutines (they demux async status events from synchronous
	// replies), start the event dispatcher, and report the first
	// transition.
	s.engStatus = vtime.NewChan[[]byte](sim)
	s.engToken = vtime.NewChan[struct{}](sim)
	s.engToken.Send(struct{}{})
	s.evQ = vtime.NewChan[sessionEvOp](sim)
	s.mu.Lock()
	s.be.up(s.be.conn, len(s.daemons))
	s.established = true
	s.mu.Unlock()
	sim.Go(fmt.Sprintf("fe-sess-%d-events", s.ID), s.eventLoop)
	sim.Go(fmt.Sprintf("fe-sess-%d-eng-watch", s.ID), s.engineReader)
	sim.Go(fmt.Sprintf("fe-sess-%d-be-watch", s.ID), s.be.reader)
	s.fire(health.Event{Kind: health.EvDaemonsSpawned, Rank: -1})
	return s, nil
}

// RegisterStatusCB mirrors lmon_fe_regStatusCB (paper §3.2): cb fires for
// every session status transition — DaemonsSpawned, JobExited,
// DaemonExited(rank), SessionTornDown. Transitions that fired before
// registration are replayed to the new callback first, in order, so a
// callback registered right after LaunchAndSpawn still observes
// DaemonsSpawned. Callbacks run on the session's event-dispatch goroutine
// — or, registered after SessionTornDown, on the caller — and must not
// block indefinitely.
func (s *Session) RegisterStatusCB(cb func(health.Event)) {
	s.mu.Lock()
	if s.evLog == nil {
		// Sent under mu (Send never blocks) so the dispatcher's terminal
		// transition cannot slip between the check and the send. A
		// never-established session has no queue: no events ever fire.
		if s.evQ != nil {
			s.evQ.Send(sessionEvOp{cb: cb})
		}
		s.mu.Unlock()
		return
	}
	log := s.evLog
	s.mu.Unlock()
	for _, ev := range log {
		cb(ev)
	}
}

// fire delivers a status event through the dispatcher (in-order, with
// replay bookkeeping). SessionTornDown is terminal: events fired after it
// are dropped.
func (s *Session) fire(ev health.Event) {
	s.mu.Lock()
	q := s.evQ
	s.mu.Unlock()
	if q != nil {
		q.Send(sessionEvOp{ev: &ev})
	}
}

// eventLoop is the session's single event dispatcher: it serializes event
// delivery and callback registration so every callback sees every event
// exactly once, in order. It exits once SessionTornDown is delivered —
// publishing the log for late registrations and closing the queue, whose
// already-queued registrations it still serves — so an ended session
// leaves no goroutine behind.
func (s *Session) eventLoop() {
	var log []health.Event
	var cbs []func(health.Event)
	done := false
	for {
		op, ok := s.evQ.Recv()
		if !ok {
			return
		}
		switch {
		case op.cb != nil:
			cbs = append(cbs, op.cb)
			for _, ev := range log {
				op.cb(ev)
			}
		case op.ev != nil && !done:
			log = append(log, *op.ev)
			for _, cb := range cbs {
				cb(*op.ev)
			}
			if op.ev.Kind == health.EvSessionTornDown {
				done = true
				s.mu.Lock()
				s.evLog = log
				s.evQ.Close()
				s.mu.Unlock()
			}
		}
	}
}

// engineReader owns the engine connection's read side after launch: it
// routes synchronous status replies to waiting session operations and
// reacts to asynchronous status events (job exit) with the watchdog.
func (s *Session) engineReader() {
	for {
		msg, err := s.eng.Recv()
		if err != nil {
			s.engStatus.Close()
			// Only a severed link (the engine's host died) is a fault; a
			// clean EOF is the engine exiting after detach/kill.
			if errors.Is(err, simnet.ErrPeerDead) && !s.closed() {
				s.fault("engine connection lost")
			}
			return
		}
		switch msg.Type {
		case lmonp.TypeStatus:
			s.engStatus.Send(msg.Payload)
		case lmonp.TypeStatusEvent:
			ev, err := health.DecodeEvent(msg.Payload)
			if err != nil {
				continue
			}
			s.obsInstant("event:" + ev.Kind.String())
			s.fire(ev)
			if ev.Kind == health.EvJobExited {
				s.fault("job exited")
			}
		}
	}
}

// reader owns the fabric's master connection's read side once the fabric
// is up: tool data and collective frames sort into fab.rx; daemon-loss
// status events (from the health subsystem at the master) fire callbacks
// and trigger the watchdog. An unexpected connection loss means the master
// daemon itself (or its node) died. Both fabrics react identically; only
// the fault details differ (pre).
func (fab *feFabric) reader() {
	s, pre := fab.s, fab.pre()
	for {
		msg, err := fab.conn.Recv()
		if err != nil {
			// A clean EOF is the master daemon finalizing (tools may leave
			// the session at any time); only a severed link — the master's
			// node died — is a fault. The fault detail is recorded before
			// the queues fail so blocked receive/collective callers wake
			// to an error that says why the session died.
			severed := errors.Is(err, simnet.ErrPeerDead) && !s.closed()
			if severed {
				s.noteFault(pre + "master daemon connection severed")
			}
			fab.rx.fail(s.closedErr())
			if severed {
				s.fire(health.Event{
					Kind: health.EvDaemonExited, Rank: 0,
					Detail: pre + "master daemon connection severed",
				})
				s.fault(pre + "master daemon lost")
			}
			return
		}
		if fab.rx.sort(msg) {
			continue
		}
		switch msg.Type {
		case lmonp.TypeObsMetrics:
			// The finalize-time harvest: a cumulative fabric-wide snapshot
			// folded up the tree and pushed by the master before it closes.
			s.stashObsHarvest(fab.prof.kind, msg.Payload)
		case lmonp.TypeStatusEvent:
			ev, err := health.DecodeEvent(msg.Payload)
			if err != nil {
				continue
			}
			if pre != "" {
				ev.Detail = pre + "fabric: " + ev.Detail
			}
			s.obsInstant(pre + "event:" + ev.Kind.String())
			s.fire(ev)
			if ev.Kind == health.EvDaemonExited {
				s.fault(fmt.Sprintf("%sdaemon rank %d lost", pre, ev.Rank))
			}
		}
	}
}

// fault records a fatal session fault (the first one names the cause, see
// noteFault) and hands the teardown to a watchdog goroutine, so the
// reader that detected it is never the one blocked in the engine exchange.
func (s *Session) fault(detail string) {
	s.noteFault(detail)
	s.p.Sim().Go(fmt.Sprintf("fe-sess-%d-watchdog", s.ID), func() { s.watchdogTeardown(detail) })
}

// watchdogTeardown reacts to a fatal session fault: it wins the lifecycle
// transition (or yields to a teardown already in flight), best-effort
// kills the job and daemons through the engine, releases every connection,
// and fires SessionTornDown. Idempotent across the sever/heartbeat/job-exit
// detection paths racing each other.
func (s *Session) watchdogTeardown(detail string) {
	if !s.endSession(true) {
		return
	}
	_, _ = s.engExchange(&lmonp.Msg{Class: lmonp.ClassFEEngine, Type: lmonp.TypeKill}) // best effort; the engine may be gone
	s.finishTeardown("watchdog: " + detail)
}

// awaitEngPayload waits for the next engine status payload routed by the
// engine reader, bounded by the session timeout.
func (s *Session) awaitEngPayload() ([]byte, error) {
	payload, ok, timedOut := s.engStatus.RecvTimeout(s.timeout)
	if timedOut {
		return nil, fmt.Errorf("core: session %d: engine status timeout", s.ID)
	}
	if !ok {
		return nil, fmt.Errorf("core: session %d: engine connection lost", s.ID)
	}
	return payload, nil
}

// engExchange performs one request/reply exchange with the engine under
// the session's exchange token. The engine's command loop replies in
// request order while engStatus wakes waiters in park order, so two
// overlapping exchanges (say LaunchMW racing the watchdog's kill) could
// otherwise each collect the other's reply.
func (s *Session) engExchange(m *lmonp.Msg) ([]byte, error) {
	if _, ok := s.engToken.Recv(); !ok {
		return nil, fmt.Errorf("core: session %d: torn down", s.ID)
	}
	defer s.engToken.Send(struct{}{})
	if err := s.eng.Send(m); err != nil {
		return nil, err
	}
	return s.awaitEngPayload()
}

// finishTeardown releases the session's connections and delivers the
// terminal SessionTornDown event, on which the event dispatcher exits
// (callbacks registered after the fact still get the full history
// replayed, see RegisterStatusCB).
func (s *Session) finishTeardown(detail string) {
	s.close()
	s.fire(health.Event{Kind: health.EvSessionTornDown, Rank: -1, Detail: detail})
}

// adoptTable installs the validated RPDTAB as the session's table and
// publishes the session-shared index built from it. Both seed pipelines
// call it before the BE master can report ready — rank-sliced BE daemons
// and every MW daemon (whichever pipeline launched the BE fabric) read
// the full table from that index.
func (s *Session) adoptTable(tab proctab.Table) error {
	s.tab = tab
	s.obsGauge("fe.table.bytes").SetMax(uint64(tab.MemBytes()))
	idx, err := proctab.BuildIndex(tab)
	if err != nil {
		return fmt.Errorf("core: building shared RPDTAB index: %w", err)
	}
	sharedSegFor(s.ID).publishIndex(idx)
	return nil
}

// closed reports whether the session has been detached or killed.
func (s *Session) closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.detached || s.killed
}

// noteFault records the first terminal fault's detail so receive paths
// can report why the session died; later faults keep the original cause.
func (s *Session) noteFault(detail string) {
	s.mu.Lock()
	// A session the tool already ended has no fault to report — late
	// events from the dying daemons must not turn a clean Detach/Kill
	// into a "torn down" error.
	if !s.detached && !s.killed && s.faultDetail == "" {
		s.faultDetail = detail
	}
	s.mu.Unlock()
}

// closedErr is what a receive path returns on a finished session: the
// bare ErrSessionClosed after a tool-initiated Detach/Kill, or — when
// the watchdog tore the session down — an error wrapping the terminal
// fault detail (e.g. "session torn down: daemon rank 3 lost"), so tools
// can report why a gather died rather than just that it did.
func (s *Session) closedErr() error {
	s.mu.Lock()
	d := s.faultDetail
	s.mu.Unlock()
	if d == "" {
		return ErrSessionClosed
	}
	return fmt.Errorf("core: session torn down: %s: %w", d, ErrSessionClosed)
}

// Proctab returns the job's RPDTAB.
func (s *Session) Proctab() proctab.Table { return s.tab }

// Daemons returns the per-daemon records gathered during handshake.
func (s *Session) Daemons() []DaemonInfo { return s.daemons }

// SendToBE ships tool data to the master back-end daemon (which typically
// broadcasts it over ICCL).
func (s *Session) SendToBE(data []byte) error { return s.be.sendUsr(data) }

// RecvFromBE receives tool data from the master back-end daemon.
func (s *Session) RecvFromBE() ([]byte, error) { return s.be.recvUsr() }

// endSession flips the given lifecycle flag exactly once; it reports
// whether the caller won the transition. A session that never finished
// launching (startSession failed before returning it) is not transitionable:
// Detach and Kill on it are idempotent no-ops, so racing them against a
// failed launch cannot touch the half-initialized connection set.
func (s *Session) endSession(kill bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.established || s.detached || s.killed {
		return false
	}
	if kill {
		s.killed = true
	} else {
		s.detached = true
	}
	return true
}

// Detach ends tool control, leaving the job running. Daemons observe their
// FE/ICCL connections closing and shut themselves down.
func (s *Session) Detach() error { return s.end(false) }

// Kill terminates the job, its tasks and all daemons.
func (s *Session) Kill() error { return s.end(true) }

// end wins the lifecycle transition, asks the engine to detach from or
// kill the job, and tears the session down — also when the exchange
// fails: the session is over either way, and the mux endpoint must be
// released.
func (s *Session) end(kill bool) error {
	if !s.endSession(kill) {
		return ErrSessionClosed
	}
	req, verb, done := lmonp.TypeDetach, "detach", "detached"
	if kill {
		req, verb, done = lmonp.TypeKill, "kill", "killed"
	}
	defer s.finishTeardown(done + " by tool")
	payload, err := s.engExchange(&lmonp.Msg{Class: lmonp.ClassFEEngine, Type: req})
	if err != nil {
		return err
	}
	status, _, err := engine.DecodeStatus(payload)
	if err != nil {
		return err
	}
	if status != done {
		return fmt.Errorf("core: %s failed: %s", verb, status)
	}
	return nil
}

func (s *Session) close() {
	dropSharedSeg(s.ID)
	if s.eng != nil {
		s.eng.Close()
	}
	s.mu.Lock()
	be, mw := s.be.conn, s.mw.conn
	s.mu.Unlock()
	if be != nil {
		be.Close()
	}
	if mw != nil {
		mw.Close()
	}
	if s.ep != nil {
		s.ep.Close()
	}
}

// decodeReady parses a ready payload: daemon infos + component timeline +
// the fabric's harvested metrics snapshot (empty when observability is
// off).
func decodeReady(b []byte) ([]DaemonInfo, engine.Timeline, []byte, error) {
	rd := lmonp.NewReader(b)
	infosRaw, tlRaw := rd.Bytes(), rd.Bytes()
	// The harvested-metrics field is optional: an obs-off fabric omits it
	// entirely, keeping the obs-off ready message byte-identical to the
	// pre-observability wire format (zero cost when the plane is off).
	var obsBlob []byte
	if rd.Remaining() > 0 {
		obsBlob = rd.Bytes()
	}
	if err := rd.Err(); err != nil {
		return nil, engine.Timeline{}, nil, err
	}
	infos, err := decodeDaemonInfos(infosRaw)
	if err != nil {
		return nil, engine.Timeline{}, nil, err
	}
	tl, err := engine.DecodeTimeline(tlRaw)
	if err != nil {
		return nil, engine.Timeline{}, nil, err
	}
	return infos, tl, obsBlob, nil
}

// encodeReady renders the ready payload from the gathered per-daemon
// info blobs (one encodeDaemonInfo each, rank-indexed) as they are: the
// master never decodes K records just to re-encode the same bytes.
func encodeReady(infoBlobs [][]byte, tl engine.Timeline, obsBlob []byte) []byte {
	n := 4
	for _, raw := range infoBlobs {
		n += 4 + len(raw)
	}
	tlEnc := tl.Encode()
	b := lmonp.AppendUint32(make([]byte, 0, 4+n+4+len(tlEnc)+4+len(obsBlob)), uint32(n))
	b = lmonp.AppendUint32(b, uint32(len(infoBlobs)))
	for _, raw := range infoBlobs {
		b = lmonp.AppendBytes(b, raw)
	}
	b = lmonp.AppendBytes(b, tlEnc)
	if len(obsBlob) == 0 {
		return b
	}
	return lmonp.AppendBytes(b, obsBlob)
}
