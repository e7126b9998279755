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
	// collective tool-data plane (Session.Broadcast/Gather/Reduce and the
	// BE.Collective mirror); 0 selects coll.DefaultChunkBytes.
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

// Session binds one job and its daemon sets (paper §3.2): the handle all
// other FE operations take. A session's exported methods are safe to call
// from the goroutine that created it; distinct sessions of one front end
// are fully independent and may run concurrently.
type Session struct {
	ID int

	p  *cluster.Proc
	fe *FrontEnd
	ep *transport.Endpoint

	tab        proctab.Table
	chunkBytes int
	collChunk  int // collective-plane chunk bound (0 = coll default)
	collWindow int // collective-plane credit window (0 = coll default)

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

	// The state machine of state.go. mu guards it against the tool's
	// goroutines calling in concurrently; step is its only writer (AllocTag
	// and the reply queue's pop aside, which decide nothing).
	mu      sync.Mutex
	state   sessState
	cause   string               // from stEnding on: who ended the session — the SessionTornDown detail
	fault   string               // the first fatal fault ("" = none): what closedErr wraps
	eng     *lmonp.Conn          // the engine connection, from the moment the mux hands it over
	engGone bool                 // it ended
	replies []*vtime.Chan[feIn]  // pending engine replies, oldest first (requestLocked)
	be, mw  feFabric             // the back-end and middleware fabrics
	cbs     []func(health.Event) // status callbacks; nil again once ended
	evLog   []health.Event       // every status event so far, for replay

	userTags uint32 // AllocTag counter
}

// ErrSessionClosed is returned by operations on a finished session.
var ErrSessionClosed = errors.New("core: session detached or killed")

// LaunchAndSpawn launches a new job under tool control and co-locates the
// tool's daemons with it in a single operation — the paper's primary FE
// service, whose critical path is modeled in §4 — creating (or reusing)
// the calling process's front-end handle. Concurrent calls from one
// process share a single transport mux.
func LaunchAndSpawn(p *cluster.Proc, opts Options) (*Session, error) {
	return startSession(p, opts, false)
}

// AttachAndSpawn attaches to the running job opts.JobID and co-locates the
// tool's daemons with its tasks.
func AttachAndSpawn(p *cluster.Proc, opts Options) (*Session, error) {
	return startSession(p, opts, true)
}

func startSession(p *cluster.Proc, opts Options, attach bool) (*Session, error) {
	fe, err := newFrontEnd(p)
	if err != nil {
		return nil, err
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
		chunkBytes: opts.ProctabChunkBytes,
		collChunk:  opts.CollChunkBytes,
		collWindow: opts.CollWindow,
		obsMode:    opts.Obs,
	}
	s.be = feFabric{s: s, prof: beFabric}
	s.mw = feFabric{s: s, prof: mwFabric}
	if opts.Obs.enabled() {
		s.obsReg = obs.NewRegistry()
		s.obsRec = obs.NewRecorder(p.Sim().Now)
		// The mux is process-wide; with several concurrent obs-on sessions
		// the accept/reject counters land in whichever registry attached
		// last (they are process-level admission counts either way).
		fe.mux.SetMetrics(s.obsReg)
	}
	if s.ep, err = fe.mux.Open(s.ID); err != nil {
		return nil, err
	}
	relay := &seedRelay{fab: &s.be, feData: opts.FEData}
	if err := s.launchFabric(&s.be, relay, func() error { return s.launch(opts, attach, relay) }); err != nil {
		return nil, err
	}
	return s, nil
}

// launch drives the session through stLaunching on the caller's
// goroutine, blocked on relay.in between inputs: spawn the engine, send it
// the request once it has dialed in, and distribute the session seed.
func (s *Session) launch(opts Options, attach bool, relay *seedRelay) error {
	p, sim := s.p, s.p.Sim()
	launchSpan := s.obsRec.Start("launch-and-spawn")
	s.Timeline.Mark(engine.MarkE0, sim.Now())
	p.Compute(feStartCost)
	feAddr := s.fe.mux.Addr().String()

	// Spawn the engine co-located with the RM process (same node). It
	// dials back through the mux, identified by the session hello.
	if _, err := p.Spawn(cluster.Spec{
		Exe: engine.ExeName,
		Env: map[string]string{
			engine.EnvFEAddr:  feAddr,
			engine.EnvSession: encodeSessionID(s.ID),
		},
	}); err != nil {
		return fmt.Errorf("core: spawning engine: %w", err)
	}
	s.ep.Handle(transport.RoleEngine, func(c *lmonp.Conn, err error) {
		s.step(&input{kind: inConn, conn: c, err: err})
	})
	in, ok, late := relay.in.RecvTimeout(engineBound)
	if late || !ok {
		in.err = fmt.Errorf("no dial-back within %v", engineBound)
	}
	if in.err != nil {
		s.ep.Unhandle(transport.RoleEngine)
		return fmt.Errorf("core: engine did not connect: %w", in.err)
	}

	daemon := opts.Daemon
	daemon.Env = bootEnv{
		feAddr: feAddr, session: s.ID,
		tree:      iccl.Config{Port: icclPortFor(s.ID, false), Fanout: opts.ICCLFanout},
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
	if err := s.request(req, relay.in); err != nil {
		return err
	}

	// Distribute the session seed (RPDTAB + FEData) and complete the
	// FE↔master handshake under the selected pipeline.
	if err := s.launchSeed(opts, relay); err != nil {
		return err
	}

	p.Compute(feFinishCost)
	s.Timeline.Mark(engine.MarkE11, sim.Now())
	launchSpan.End()
	return nil
}

// RegisterStatusCB mirrors lmon_fe_regStatusCB (paper §3.2): cb fires for
// every session status transition — DaemonsSpawned, JobExited,
// DaemonExited(rank), SessionTornDown. Transitions that fired before
// registration are replayed to the new callback first, in order, so a
// callback registered right after LaunchAndSpawn still observes
// DaemonsSpawned. Callbacks run on the vtime scheduler — or, registered
// after SessionTornDown, on the caller — and must not block: no Sleep,
// Recv, Compute or session call that waits; sending on a Chan, appending
// and taking a mutex nothing holds across a wait are fine.
func (s *Session) RegisterStatusCB(cb func(health.Event)) {
	in := input{kind: inRegister, cb: cb}
	s.step(&in)
	// The history of an ended session is final, so it is served right here.
	for _, ev := range in.replay {
		cb(ev)
	}
}

// adoptTable installs the validated RPDTAB as the session's table and
// publishes the session-shared index built from it. Both seed pipelines
// call it before the BE master can report ready — rank-sliced BE daemons
// and every MW daemon (whichever pipeline launched the BE fabric) read
// the full table from that index.
func (s *Session) adoptTable(tab proctab.Table) error {
	s.tab = tab
	idx, err := proctab.BuildIndex(tab)
	if err != nil {
		return fmt.Errorf("core: building shared RPDTAB index: %w", err)
	}
	s.obsGauge("fe.table.bytes").SetMax(uint64(idx.TableBytes()))
	sharedSegFor(s.ID).publishIndex(idx)
	return nil
}

// closedErr is what a receive path returns on a finished session: the
// bare ErrSessionClosed after a tool-initiated Detach/Kill, or — when a
// fault tore the session down — an error wrapping the first fault's detail
// (e.g. "session torn down: daemon rank 3 lost"), so tools can report why
// a gather died rather than just that it did.
func (s *Session) closedErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closedErrLocked()
}

func (s *Session) closedErrLocked() error {
	if s.fault == "" {
		return ErrSessionClosed
	}
	return fmt.Errorf("core: session torn down: %s: %w", s.fault, ErrSessionClosed)
}

// Proctab returns the job's RPDTAB.
func (s *Session) Proctab() proctab.Table { return s.tab }

// Daemons returns the per-daemon records gathered during handshake.
func (s *Session) Daemons() []DaemonInfo { return s.be.infos }

// SendToBE ships tool data to the master back-end daemon (which typically
// broadcasts it over ICCL).
func (s *Session) SendToBE(data []byte) error { return s.be.sendUsr(data) }

// RecvFromBE receives tool data from the master back-end daemon.
func (s *Session) RecvFromBE() ([]byte, error) { return s.be.recvUsr() }

// Detach ends tool control, leaving the job running. Daemons observe their
// FE/ICCL connections closing and shut themselves down.
func (s *Session) Detach() error { return s.end(lmonp.TypeDetach, "detach", "detached") }

// Kill terminates the job, its tasks and all daemons.
func (s *Session) Kill() error { return s.end(lmonp.TypeKill, "kill", "killed") }

// end wins the lifecycle transition, asks the engine to detach from or
// kill the job, and ends the session — also when the exchange fails: the
// session is over either way, and the mux endpoint must be released.
func (s *Session) end(req lmonp.MsgType, verb, done string) error {
	in := input{kind: inEnd, req: req}
	err := s.step(&in)
	if in.reply == nil {
		return err // ErrSessionClosed: not ready, or someone else is ending it
	}
	defer s.step(&input{kind: inEnded})
	if err != nil {
		return err
	}
	answer, ok := in.reply.Recv()
	if !ok {
		return s.engineErr("connection lost")
	}
	status, _, err := engine.DecodeStatus(answer.msg.Payload)
	if err != nil {
		return err
	}
	if status != done {
		return fmt.Errorf("core: %s failed: %s", verb, status)
	}
	return nil
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
