package rm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/proctab"
	"launchmon/internal/vtime"
)

// command is a control request delivered to the running launcher process
// (the simulated analogue of LaunchMON instructing the existing launcher,
// or running "srun --jobid=N" against the allocation).
type command struct {
	kind  cmdKind
	spec  DaemonSpec
	n     int // AllocateAndSpawn node count
	reply *vtime.Chan[cmdResult]
}

type cmdKind int

const (
	cmdSpawnDaemons cmdKind = iota
	cmdAllocSpawn
	cmdKill
)

type cmdResult struct {
	nodes []string
	err   error
}

// spawnLayer is one interned daemon spawn layer (Skeleton.SpawnEnv).
type spawnLayer struct {
	key  []byte
	spec DaemonSpec
}

// job implements Job for every Skeleton-based manager.
type job struct {
	s    *Skeleton
	id   int
	spec JobSpec
	proc *cluster.Proc
	cmds *vtime.Chan[command]

	mu      sync.Mutex
	nodes   []string
	mwNodes []string // AllocateAndSpawn allocations, reaped with the job
	layers  []spawnLayer
	killed  bool
}

// ID implements Job.
func (j *job) ID() int { return j.id }

// LauncherProc implements Job.
func (j *job) LauncherProc() *cluster.Proc { return j.proc }

// Start implements Job.
func (j *job) Start() { j.proc.Start() }

// Nodes implements Job.
func (j *job) Nodes() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.nodes...)
}

// SpawnDaemons implements Job.
func (j *job) SpawnDaemons(spec DaemonSpec) error {
	return j.send(command{kind: cmdSpawnDaemons, spec: spec}).err
}

// AllocateAndSpawn implements Job.
func (j *job) AllocateAndSpawn(n int, spec DaemonSpec) ([]string, error) {
	res := j.send(command{kind: cmdAllocSpawn, spec: spec, n: n})
	return res.nodes, res.err
}

// Kill implements Job. It terminates the job even when the launcher
// itself is gone (killed directly, lost with its node, or exited on a
// failed launch): the command is then served by the job's reaper instead
// of the launcher loop.
func (j *job) Kill() error {
	j.mu.Lock()
	killed := j.killed
	j.mu.Unlock()
	if killed {
		return ErrAlreadyKilled
	}
	return j.send(command{kind: cmdKill}).err
}

// errLauncherGone fails control requests nobody is left to serve.
var errLauncherGone = errors.New("rm: launcher gone")

func (j *job) send(c command) cmdResult {
	c.reply = vtime.NewChan[cmdResult](j.s.cl.Sim())
	// Checked and enqueued under mu (Send never blocks): once the job is
	// killed its command queue takes nothing more, which is what lets the
	// reaper drain it and exit.
	j.mu.Lock()
	if j.killed {
		j.mu.Unlock()
		return cmdResult{err: errLauncherGone}
	}
	j.cmds.Send(c)
	j.mu.Unlock()
	res, ok := c.reply.Recv()
	if !ok {
		return cmdResult{err: errLauncherGone}
	}
	return res
}

// retire ends the job's life in the manager: marked killed, it takes no
// more commands, FindJob no longer sees it, and what it interned goes
// with it — an ended job pins nothing the caller's handle does not. The
// command queue closes behind the flag: when a force-killed launcher's
// goroutine, still parked on the queue, took the kill ahead of the reaper,
// this is what lets the reaper go.
func (j *job) retire() {
	j.mu.Lock()
	j.killed = true
	j.layers = nil
	j.mu.Unlock()
	j.cmds.Close()
	j.s.forget(j.id)
}

// reaper takes over the command queue once the launcher process has
// exited, so control requests against a dead launcher fail fast instead of
// hanging — and a kill still reaps the job's remaining processes (the
// orphan-cleanup path of the fault model). It exits once the job is
// killed, by the launcher or by itself, after failing whatever was queued
// behind the kill; the reaper of a job left running (detach) stays.
func (j *job) reaper() {
	j.proc.Wait()
	for {
		j.mu.Lock()
		killed := j.killed
		j.mu.Unlock()
		if killed {
			for {
				cmd, ok := j.cmds.TryRecv()
				if !ok {
					return
				}
				j.serveOrphanCmd(cmd)
			}
		}
		cmd, ok := j.cmds.Recv()
		if !ok {
			return
		}
		j.serveOrphanCmd(cmd)
	}
}

// serveOrphanCmd handles one control command after launcher death.
func (j *job) serveOrphanCmd(cmd command) {
	switch cmd.kind {
	case cmdKill:
		cmd.reply.Send(cmdResult{err: j.directKill()})
	default:
		cmd.reply.Send(cmdResult{err: errLauncherGone})
	}
}

// directKill reaps the job's tasks and daemons without the launcher: one
// single-node kill per node, issued in parallel from the front-end node
// (where the launcher ran), best-effort — dead nodes are skipped, their
// processes died with them. The flat fan-out trades the fabric's message
// economy for independence from dead interior nodes.
func (j *job) directKill() error {
	j.mu.Lock()
	if j.killed {
		j.mu.Unlock()
		return ErrAlreadyKilled
	}
	nodes := append([]string(nil), j.nodes...)
	nodes = append(nodes, j.mwNodes...)
	j.mu.Unlock()
	h := j.s.cl.FrontEnd().Host()
	sim := j.s.cl.Sim()
	wg := vtime.NewWaitGroup(sim)
	wg.Add(len(nodes))
	for _, node := range nodes {
		node := node
		sim.Go("rm-direct-kill", func() {
			defer wg.Done()
			_ = j.s.fabric.Kill(h, j.id, []string{node}) // best effort
		})
	}
	wg.Wait()
	j.retire()
	return nil
}

// launcherMain is the launcher process body (srun, aprun, mpirun): raise
// the init debug events, allocate, launch the tasks through the fabric,
// publish the MPIR symbols, stop at MPIR_Breakpoint, then service control
// commands.
func (j *job) launcherMain(p *cluster.Proc) {
	prof, fabric := j.s.prof, j.s.fabric

	// Early debug events a tracer observes while the launcher initializes
	// (library loads, thread creation). The count is scale-independent —
	// the property the paper credits for the flat 18 ms tracing cost.
	for i := 0; i < prof.DebugEvents; i++ {
		p.DebugEvent(fmt.Sprintf("launcher-init-%d", i))
	}

	nodes, err := j.s.allocate(p.Host(), j.spec.Nodes, nil)
	if err != nil {
		p.SetSymbol(SymDebugState, cluster.Symbol{Value: "alloc-failed: " + err.Error(), Size: 64})
		return
	}
	j.mu.Lock()
	j.nodes = nodes
	j.mu.Unlock()

	// The reply is checked in wire form, with the errors decoding and
	// validating it would give.
	var c proctab.Chunk
	var order []uint32
	enc, err := fabric.Launch(p, j.id, j.spec, nodes)
	if err == nil {
		c, err = proctab.Scan(enc)
	}
	if err == nil {
		order, err = c.RankOrder()
	}
	if err != nil {
		p.SetSymbol(SymDebugState, cluster.Symbol{Value: "launch-failed: " + err.Error(), Size: 64})
		return
	}

	// Root-side per-task bookkeeping: stdio wiring, task records — the
	// linear-in-tasks term of T(job).
	p.Compute(time.Duration(c.Len()) * prof.PerTaskRootCost)

	// The fabric delivers tasks in its own completion order; the APAI
	// contract (and chunked publication) wants rank order: RankOrder's.
	publish(p, c.Len(), func(w *proctab.ChunkWriter) error {
		pool := c.Pool()
		for _, i := range order {
			hi, ei, pid, rank := c.Entry(int(i))
			if err := w.AddRaw(pool[hi], pool[ei], pid, rank); err != nil {
				return err
			}
		}
		return nil
	})
	p.SetSymbol(SymDebugState, cluster.Symbol{Value: "spawned", Size: 4})

	// The APAI rendezvous: a traced launcher stops here and the debugger
	// (the LaunchMON engine) harvests the proctable.
	p.DebugEvent(BPName)

	// Service control commands until killed or torn down.
	for {
		cmd, ok := j.cmds.Recv()
		if !ok {
			return
		}
		if p.State() == cluster.StateExited {
			// The launcher was force-killed while parked here; do not act
			// as a zombie — hand the command to the orphan path.
			j.serveOrphanCmd(cmd)
			return
		}
		switch cmd.kind {
		case cmdSpawnDaemons:
			err := fabric.Spawn(p, j.id, nodes, cmd.spec)
			// Root-side per-node ack processing for the daemon spawn.
			p.Compute(time.Duration(len(nodes)) * prof.PerNodeSpawnRootCost)
			cmd.reply.Send(cmdResult{err: err})
		case cmdAllocSpawn:
			mwNodes, err := j.s.allocate(p.Host(), cmd.n, nodes)
			if err != nil {
				cmd.reply.Send(cmdResult{err: err})
				continue
			}
			// Record the allocation before spawning so a later kill reaps
			// the middleware daemons together with the job even when the
			// spawn only partially succeeded (kills are best-effort per
			// node; nodes that never got a daemon are harmless to sweep).
			j.mu.Lock()
			j.mwNodes = append(j.mwNodes, mwNodes...)
			j.mu.Unlock()
			err = fabric.Spawn(p, j.id, mwNodes, cmd.spec)
			p.Compute(time.Duration(len(mwNodes)) * prof.PerNodeSpawnRootCost)
			cmd.reply.Send(cmdResult{nodes: mwNodes, err: err})
		case cmdKill:
			err := fabric.Kill(p.Host(), j.id, nodes)
			// The middleware allocation is disjoint from the job's nodes;
			// reap it through the fabric on its own node list.
			j.mu.Lock()
			mw := append([]string(nil), j.mwNodes...)
			j.mu.Unlock()
			if err == nil && len(mw) > 0 {
				err = fabric.Kill(p.Host(), j.id, mw)
			}
			if err != nil {
				// The fabric's root may have died with its node; fall back
				// to the flat best-effort reap (which retires the job) so
				// survivors are still cleaned.
				err = j.directKill()
			} else {
				j.retire()
			}
			cmd.reply.Send(cmdResult{err: err})
			return
		}
	}
}
