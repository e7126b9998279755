// Package engine implements the LaunchMON Engine (paper §3.1): the
// component that interacts with the resource manager on behalf of the
// tool. It runs as its own process on the front-end node (co-located with
// the RM launcher it traces), attaches debugger-style to the launcher,
// harvests the RPDTAB at MPIR_Breakpoint, triggers scalable daemon
// launches through the RM's native services, and proxies control commands
// (detach, kill, middleware spawn) between the front end and the RM over
// LMONP.
//
// The engine is the only LaunchMON component with platform dependencies;
// they are confined to the rm.Manager it is constructed with (the
// "platform-specific adaptation" layer of Figure 1).
package engine

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/health"
	"launchmon/internal/lmonp"
	"launchmon/internal/proctab"
	"launchmon/internal/rm"
	"launchmon/internal/simnet"
	"launchmon/internal/transport"
)

// ExeName is the registered executable name of the engine binary.
const ExeName = "lmon_engine"

// EnvFEAddr tells a freshly spawned engine where its front end's
// transport mux listens.
const EnvFEAddr = "LMON_ENGINE_FE_ADDR"

// EnvSession tells a freshly spawned engine which session it serves; the
// engine announces it in the transport hello so the front-end mux routes
// the connection to the owning session.
const EnvSession = "LMON_ENGINE_SESSION"

// The engine's cost model: handlerCost is its CPU time per native
// trace event (12 SLURM events → the paper's 18 ms tracing cost), BaseCost
// its fixed startup bookkeeping.
const (
	handlerCost = 1500 * time.Microsecond
	BaseCost    = 3 * time.Millisecond
)

// Install registers the engine executable on the cluster, bound to the
// given resource manager. Tool front ends then spawn ExeName on the
// front-end node once per session.
func Install(cl *cluster.Cluster, mgr rm.Manager) {
	cl.Register(ExeName, func(p *cluster.Proc) {
		e := &engine{proc: p, mgr: mgr}
		e.main()
	})
}

// engine is one session's engine instance.
type engine struct {
	proc *cluster.Proc
	mgr  rm.Manager

	session    int
	chunkBytes int // the session's RPDTAB chunk size; 0 = proctab.DefaultChunkBytes

	fe  *lmonp.Conn
	job rm.Job
	tr  *cluster.Tracer
	tl  Timeline
}

func (e *engine) main() {
	start := e.proc.Sim().Now()
	e.tl.Mark(MarkE1, start)
	e.proc.Compute(BaseCost)

	addr, err := simnet.ParseAddr(e.proc.Env(EnvFEAddr))
	if err != nil {
		return
	}
	e.session, err = strconv.Atoi(e.proc.Env(EnvSession))
	if err != nil {
		return
	}
	conn, err := transport.Dial(e.proc.Host(), addr, e.session, transport.RoleEngine)
	if err != nil {
		return
	}
	e.fe = conn
	defer e.fe.Close()
	// If this engine process is killed mid-protocol (fault injection), the
	// adopted conn severs and the front end observes ErrPeerDead instead of
	// waiting forever on a corpse.
	e.proc.AdoptConn(conn)

	req, err := e.fe.Recv()
	if err != nil {
		return
	}
	switch req.Type {
	case lmonp.TypeLaunchReq:
		err = e.serveLaunch(req)
	case lmonp.TypeAttachReq:
		err = e.serveAttach(req)
	default:
		err = fmt.Errorf("engine: unexpected first message %v", req.Type)
	}
	if err != nil {
		e.sendStatus("error: " + err.Error())
		return
	}
	// The session is up: watch the traced launcher for an asynchronous
	// exit (job death) while the command loop serves the front end.
	e.proc.Sim().Go("engine-job-watch", e.watchJob)
	e.commandLoop()
}

func (e *engine) sendStatus(s string) {
	payload := lmonp.AppendString(nil, s)
	payload = lmonp.AppendBytes(payload, e.tl.Encode())
	e.fe.Send(&lmonp.Msg{Class: lmonp.ClassFEEngine, Type: lmonp.TypeStatus, Payload: payload})
}

// watchJob drains the tracer's event stream after launch. A launcher exit
// is forwarded to the front end as an asynchronous JobExited status event
// (the FE's watchdog reacts by tearing the session down). The stream
// closes when the engine detaches, ending the watch.
func (e *engine) watchJob() {
	for {
		ev, ok := e.tr.Events().Recv()
		if !ok {
			return
		}
		if ev.Type == cluster.EventExit {
			e.fe.Send(&lmonp.Msg{
				Class: lmonp.ClassFEEngine,
				Type:  lmonp.TypeStatusEvent,
				Payload: health.EncodeEvent(health.Event{
					Kind: health.EvJobExited, Rank: -1, Code: ev.Code,
					Detail: "launcher exited",
				}),
			})
			return
		}
	}
}

// serveLaunch implements launchAndSpawn's engine half: events e1..e6.
func (e *engine) serveLaunch(req *lmonp.Msg) error {
	lr, err := decodeLaunchReq(req.Payload)
	if err != nil {
		return err
	}
	job, err := e.mgr.StartJobHeld(lr.Job)
	if err != nil {
		return err
	}
	return e.acquire(job, lr.Daemon, lr.ChunkBytes, rm.BPName)
}

// serveAttach implements attachAndSpawn's engine half for a running job.
func (e *engine) serveAttach(req *lmonp.Msg) error {
	ar, err := decodeAttachReq(req.Payload)
	if err != nil {
		return err
	}
	job, ok := e.mgr.FindJob(ar.JobID)
	if !ok {
		return fmt.Errorf("%w: id %d", rm.ErrNoSuchJob, ar.JobID)
	}
	// Interrupt the running launcher, consume the stop, and proceed as in
	// launch mode from the breakpoint-equivalent state.
	return e.acquire(job, ar.Daemon, ar.ChunkBytes, "interrupt")
}

// acquire is what both modes share (e2..e6): attach to the job's launcher,
// set it going toward the stop its mode waits for — rm.BPName when the
// engine launched the job, "interrupt" when it attaches to a running one
// — trace it there, then harvest and spawn.
func (e *engine) acquire(job rm.Job, daemon rm.DaemonSpec, chunkBytes int, stop string) (err error) {
	defer func() {
		if errors.Is(err, cluster.ErrExited) {
			err = fmt.Errorf("engine: job launcher: %w", err)
		}
	}()
	e.job, e.chunkBytes = job, chunkBytes
	tr, err := job.LauncherProc().Attach()
	if err != nil {
		return err
	}
	e.tr = tr
	e.proc.AdoptConn(tr) // a killed engine releases the launcher
	if stop == rm.BPName {
		job.Start()
	} else if err := tr.Interrupt(); err != nil {
		return err
	}
	e.tl.Mark(MarkE2, e.proc.Sim().Now())
	tracing, err := e.trace(tr, stop)
	if err != nil {
		return err
	}
	e.tl.Mark(MarkE3, e.proc.Sim().Now())
	e.tl.Mark(MarkTracing, tracing)
	return e.harvestAndSpawn(daemon, tr)
}

// trace reads the launcher's native trace events until it stops for
// stop, charging the engine handlerCost for each (paper §3.1's event
// handling; their sum is the tracing cost it returns). On the way to
// MPIR_Breakpoint every other stop is continued; in attach mode they are
// left alone. A launcher exit, or the stream closing, is an error.
func (e *engine) trace(tr *cluster.Tracer, stop string) (time.Duration, error) {
	var cost time.Duration
	launch := stop == rm.BPName
	for {
		ev, ok := tr.Events().Recv()
		if !ok {
			return cost, errors.New("engine: event stream closed")
		}
		e.proc.Compute(handlerCost)
		cost += handlerCost
		switch {
		case ev.Type == cluster.EventStop && ev.Reason == stop:
			return cost, nil
		case ev.Type == cluster.EventStop:
			if launch {
				if err := tr.Continue(); err != nil {
					return cost, err
				}
			}
		case launch:
			why, _ := tr.ReadSymbol(rm.SymDebugState)
			return cost, fmt.Errorf("engine: launcher exited with code %d before MPIR_Breakpoint (%v)", ev.Code, why)
		default:
			return cost, errors.New("engine: launcher exited during attach")
		}
	}
}

// harvestAndSpawn fetches the RPDTAB (Region B), ships it to the FE, and
// has the RM co-locate the tool daemons (e5..e6).
func (e *engine) harvestAndSpawn(spec rm.DaemonSpec, tr *cluster.Tracer) error {
	fetchStart := e.proc.Sim().Now()
	// Stream the harvest: each launcher-published chunk symbol is read,
	// scanned, and immediately re-chunked onto the engine→FE stream at the
	// session chunk size — the engine's transient is O(chunk) and in wire
	// form, it never materializes an entry, let alone the table. Under the
	// cut-through pipeline the FE relays each chunk onward to the master
	// daemon as it arrives (and the master into the forming ICCL tree), so
	// chunks flow end to end without a full-table stop anywhere. All symbol
	// reads complete before the launcher is resumed, per the APAI contract.
	w, end := proctab.StreamTo(e.fe, lmonp.ClassFEEngine, e.chunkBytes)
	err := rm.ReadProctabChunks(tr, func(chunk []byte, _, _ int) error {
		c, err := proctab.Scan(chunk)
		if err != nil {
			return err
		}
		return w.AddChunk(c)
	})
	if err != nil {
		return err
	}
	e.tl.Mark(MarkE4, e.proc.Sim().Now())
	e.tl.Mark(MarkFetch, e.proc.Sim().Now()-fetchStart)
	if err := end(); err != nil {
		return err
	}

	// Resume the launcher; it must be servicing commands for SpawnDaemons.
	if err := tr.Continue(); err != nil && !errors.Is(err, cluster.ErrNotStopped) {
		return err
	}

	e.tl.Mark(MarkE5, e.proc.Sim().Now())
	if err := e.job.SpawnDaemons(spec); err != nil {
		return err
	}
	e.tl.Mark(MarkE6, e.proc.Sim().Now())
	e.sendStatus("daemons-spawned")
	return nil
}

// commandLoop services FE control requests for the rest of the session.
func (e *engine) commandLoop() {
	for {
		msg, err := e.fe.Recv()
		if err != nil {
			return
		}
		switch msg.Type {
		case lmonp.TypeSpawnReq:
			sr, err := decodeSpawnReq(msg.Payload)
			if err != nil {
				e.sendStatus("error: " + err.Error())
				continue
			}
			nodes, err := e.job.AllocateAndSpawn(sr.Nodes, sr.Daemon)
			if err != nil {
				e.sendStatus("error: " + err.Error())
				continue
			}
			payload := lmonp.AppendString(nil, "mw-spawned")
			payload = lmonp.AppendStringList(payload, nodes)
			e.fe.Send(&lmonp.Msg{Class: lmonp.ClassFEEngine, Type: lmonp.TypeStatus, Payload: payload})
		case lmonp.TypeDetach:
			if e.tr != nil {
				e.tr.Detach()
			}
			e.sendStatus("detached")
			return
		case lmonp.TypeKill:
			if e.tr != nil {
				e.tr.Detach()
			}
			// An already-dead job (node loss, launcher exit) still counts
			// as killed: the watchdog teardown path must converge.
			if err := e.job.Kill(); err != nil && !errors.Is(err, rm.ErrAlreadyKilled) {
				e.sendStatus("error: " + err.Error())
				return
			}
			e.sendStatus("killed")
			return
		default:
			e.sendStatus(fmt.Sprintf("error: unexpected message %v", msg.Type))
		}
	}
}
