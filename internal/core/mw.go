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
func (s *Session) LaunchMW(opts MWOptions) (nodes []string, err error) {
	relay := &seedRelay{fab: &s.mw, feData: opts.FEData}
	err = s.launchFabric(&s.mw, relay, func() error {
		nodes, err = s.launchMW(opts, relay)
		return err
	})
	return nodes, err // the fabric is down again on an error: the tool may retry
}

// launchMW drives the MW fabric through fabLaunching on the caller's
// goroutine, blocked on relay.in between inputs.
func (s *Session) launchMW(opts MWOptions, relay *seedRelay) ([]string, error) {
	sp := s.obsRec.Start("launch-mw")
	defer sp.End()

	daemon := opts.Daemon
	daemon.Env = bootEnv{
		feAddr: s.fe.mux.Addr().String(), session: s.ID,
		tree:      iccl.Config{Port: icclPortFor(s.ID, true), Fanout: opts.ICCLFanout},
		collChunk: s.collChunk, collWindow: s.collWindow, proctabChunk: s.chunkBytes,
		obs: s.obsMode, health: opts.Health,
	}.plant(daemon.Env, mwFabric)

	// A previous failed attempt may have left a late MW-master dial queued
	// on this session's endpoint; shed it so this attempt cannot handshake
	// with the stale daemon set.
	s.ep.Drain(transport.RoleMW)

	// The relay is open across the spawn exchange below — the master
	// daemon dials the moment the RM spawns it, typically while its sibling
	// daemons are still coming up, and the seed flows through the forming
	// MW tree (iccl.Forming) with per-rank validation.
	relay.start()
	// MW daemons own no application tasks, so their rank slice is empty:
	// the stream is just the FEData preamble plus an empty-table end
	// marker — O(1) per MW link — and MW daemons read the full table
	// (when a tool asks) from the session-shared index.
	if err := relay.forward(lmonp.TypeProctabEnd, proctab.EncodeEndMarker(0, lmonp.SumInit)); err != nil {
		return nil, err
	}

	// Ask the engine (and through it the RM) for the MW allocation and
	// spawn; the master's connect and ready are due readyBound after it.
	if err := s.request(&lmonp.Msg{
		Class:   lmonp.ClassFEEngine,
		Type:    lmonp.TypeSpawnReq,
		Payload: engine.EncodeSpawnReq(engine.SpawnReq{Nodes: opts.Nodes, Daemon: daemon}),
	}, relay.in); err != nil {
		return nil, err
	}
	var nodes []string
	for spawned := false; !spawned || !relay.done; {
		in, err := relay.next()
		switch {
		case err != nil:
		case in.fab != nil:
			err = relay.input(in)
		default:
			spawned = true
			if nodes, err = decodeSpawned(in.msg.Payload); err == nil {
				relay.tl.Mark(relay.fab.prof.marks.SpawnDone, s.p.Sim().Now())
				relay.arm(opts.Nodes, opts.ICCLFanout, SeedCutThrough)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	s.Timeline.Merge(relay.tl)
	return nodes, nil
}

// decodeSpawned parses the engine's answer to a spawn request: the
// allocated node names.
func decodeSpawned(payload []byte) ([]string, error) {
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
	return append([]DaemonInfo(nil), s.mw.infos...)
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
	d, err := initDaemon(p, &mwFabric)
	if err != nil {
		return nil, err
	}
	return &Middleware{daemonSession: d}, nil
}

// Personality returns the daemon's personality handle (its rank) and the
// total daemon count — the MPI-rank-like identity of §3.4.
func (m *Middleware) Personality() (rank, size int) { return m.comm.Rank(), m.comm.Size() }
