package core

import (
	"fmt"

	"launchmon/internal/cluster"
	"launchmon/internal/engine"
	"launchmon/internal/iccl"
	"launchmon/internal/lmonp"
	"launchmon/internal/proctab"
	"launchmon/internal/rm"
	"launchmon/internal/transport"
)

// MWOptions parameterize middleware daemon launches. The MW fabric gets
// the same launch/data/health stack as the back-end fabric: a cut-through
// session seed, a collective tool-data plane
// (Session.MWGather and MW*Tag mirrored by Middleware.Collective), and an
// optional heartbeat tree whose failure reports surface as session status
// events.
type MWOptions struct {
	// Nodes is how many fresh nodes to allocate for the TBŌN daemons.
	Nodes int
	// Daemon describes the middleware daemon executable.
	Daemon rm.DaemonSpec
	// FEData is tool bootstrap data piggybacked to every MW daemon with
	// the RPDTAB (e.g. MRNet topology information).
	FEData []byte
	// ICCLFanout of the MW bootstrap fabric; 0 = flat.
	ICCLFanout int
	// Health configures failure detection over the MW tree, mirroring
	// Options.Health: MW-daemon loss then fires DaemonExited status
	// callbacks and the session watchdog, exactly like BE-daemon loss.
	// The zero value disables it.
	Health HealthOptions
}

// LaunchMW launches middleware (TBŌN) daemons on newly allocated nodes
// (paper §3.4): the engine asks the RM for the allocation and the scalable
// spawn; each daemon receives a personality handle (its rank), the RPDTAB,
// and the same session fabric services as the back-end daemons. The FE
// relays the MW seed (MWOptions.FEData plus an empty-table end marker — MW
// daemons own no tasks and read the RPDTAB from the session-shared index)
// to the MW master while the RM is still spawning the master's siblings,
// and the master streams it through the forming MW tree with per-rank
// validation; the MW marks form their own monotone chain m7≤m8≤m9≤m10 in
// Session.Timeline.
func (s *Session) LaunchMW(opts MWOptions) ([]string, error) {
	s.mu.Lock()
	if s.detached || s.killed {
		s.mu.Unlock()
		return nil, ErrSessionClosed
	}
	if s.mw.conn != nil || s.mwLaunching {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: session %d already has middleware daemons", s.ID)
	}
	s.mwLaunching = true
	s.mu.Unlock()

	sp := s.obsRec.Start("launch-mw", -1)
	defer sp.End()

	sim := s.p.Sim()
	daemon := opts.Daemon
	daemon.Env = bootEnv{
		feAddr: s.fe.mux.Addr().String(), session: s.ID,
		tree:      iccl.Config{Port: icclPortFor(s.ID, true), Fanout: opts.ICCLFanout},
		collChunk: s.collChunk, collWindow: s.collWindow, proctabChunk: s.chunkBytes,
		obs: s.obsMode, health: opts.Health,
	}.plant(daemon.Env, mwFabric)

	// A previous timed-out attempt may have left a late MW-master dial
	// queued on this session's endpoint; shed it so this attempt cannot
	// handshake with the stale daemon set.
	s.ep.Drain(transport.RoleMW)

	// release frees the launch slot so the tool may retry a failed launch.
	release := func() {
		s.mu.Lock()
		s.mwLaunching = false
		s.mu.Unlock()
	}

	// The relay accepts the MW master and streams the seed concurrently
	// with the spawn exchange below — the master daemon dials the moment
	// the RM spawns it, typically while its sibling daemons are still
	// coming up, and the seed flows through the forming MW tree
	// (iccl.BootstrapSeedRouted) with per-rank validation.
	relay := newSeedRelay(s, mwFabric, opts.FEData,
		engine.MarkMW7, engine.MarkMWSeedFwd, engine.MarkMW10)
	sim.Go(fmt.Sprintf("fe-sess-%d-mw-seed-relay", s.ID), relay.run)
	// MW daemons own no application tasks, so their rank slice is empty:
	// the stream is just the FEData preamble plus an empty-table end
	// marker — O(1) per MW link — and MW daemons read the full table
	// (when a tool asks) from the session-shared index.
	relay.items.Send(seedItem{payload: proctab.EncodeEndMarker(0, lmonp.SumInit), end: true})

	nodes, err := s.mwSpawn(opts.Nodes, daemon)
	if err != nil {
		// The relay may still be parked in Accept (no MW daemon will
		// ever dial) or mid-handshake with a daemon set that is being
		// torn down; the launch slot is freed only once it is reaped, so
		// a retry cannot race a stale Accept for the next master's dial.
		relay.abandon(release)
		return nil, err
	}
	res, ok := relay.result.Recv()
	if !ok {
		release()
		return nil, fmt.Errorf("core: session %d: MW seed relay lost", s.ID)
	}
	if res.err != nil {
		release()
		return nil, res.err
	}

	s.Timeline.Merge(res.tl)
	s.stashObsHarvest("MW", res.obsBlob)
	s.mu.Lock()
	s.mw.up(res.conn, len(res.infos))
	s.mwInfos = res.infos
	s.mwLaunching = false
	s.mu.Unlock()
	// Hand the MW master connection's read side to a watcher goroutine
	// demuxing tool data and collective frames from async status events
	// (MW-daemon loss), mirroring the BE master's reader.
	sim.Go(fmt.Sprintf("fe-sess-%d-mw-watch", s.ID), s.mw.reader)
	return nodes, nil
}

// mwSpawn asks the engine (and through it the RM) for the MW allocation
// and spawn, returning the allocated node names.
func (s *Session) mwSpawn(nodes int, daemon rm.DaemonSpec) ([]string, error) {
	payload, err := s.engExchange(&lmonp.Msg{
		Class:   lmonp.ClassFEEngine,
		Type:    lmonp.TypeSpawnReq,
		Payload: engine.EncodeSpawnReq(engine.SpawnReq{Nodes: nodes, Daemon: daemon}),
	})
	if err != nil {
		return nil, err
	}
	rd := lmonp.NewReader(payload)
	if status := rd.String(); rd.Err() == nil && status != "mw-spawned" {
		return nil, fmt.Errorf("core: middleware spawn failed: %s", status)
	}
	return rd.StringList(), rd.Err()
}

// MWDaemons returns the per-daemon records of the middleware set.
func (s *Session) MWDaemons() []DaemonInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]DaemonInfo(nil), s.mwInfos...)
}

// SendToMW ships tool data to the master middleware daemon.
func (s *Session) SendToMW(data []byte) error { return s.mw.sendUsr(data) }

// RecvFromMW receives tool data from the master middleware daemon.
func (s *Session) RecvFromMW() ([]byte, error) { return s.mw.recvUsr() }

// Middleware is the MW-daemon-side session handle (paper §3.4). Its
// personality handle is the rank, assigned by the RM spawn. It shares the
// daemonSession core with BackEnd: the same seed validation, collective
// tool-data plane (Collective), heartbeat tree (Health) and FE pipe.
type Middleware struct {
	*daemonSession
}

// MWInit joins a middleware daemon into its session, mirroring BEInit:
// the master handshakes with the FE, the fabric bootstraps with the
// cut-through seed stream, every rank validates its seed (piggybacked
// data + empty rank slice), and the ready gather reports the daemon set
// to the front end.
func MWInit(p *cluster.Proc) (*Middleware, error) {
	d, err := initDaemon(p, mwFabric)
	if err != nil {
		return nil, err
	}
	return &Middleware{daemonSession: d}, nil
}

// Personality returns the daemon's personality handle (its rank) and the
// total daemon count — the MPI-rank-like identity of §3.4.
func (m *Middleware) Personality() (rank, size int) { return m.comm.Rank(), m.comm.Size() }
