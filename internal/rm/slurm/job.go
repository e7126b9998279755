package slurm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/lmonp"
	"launchmon/internal/proctab"
	"launchmon/internal/rm"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// command is a control request delivered to the running launcher process
// (the simulated analogue of LaunchMON instructing the existing launcher,
// or running "srun --jobid=N" against the allocation).
type command struct {
	kind  cmdKind
	spec  rm.DaemonSpec
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

// job implements rm.Job for the SLURM-like manager.
type job struct {
	m    *Manager
	id   int
	spec rm.JobSpec
	proc *cluster.Proc
	cmds *vtime.Chan[command]

	mu      sync.Mutex
	nodes   []string
	mwNodes []string // AllocateAndSpawn allocations, reaped with the job
	ptab    proctab.Table
	killed  bool
}

var _ rm.Job = (*job)(nil)

// ID implements rm.Job.
func (j *job) ID() int { return j.id }

// LauncherProc implements rm.Job.
func (j *job) LauncherProc() *cluster.Proc { return j.proc }

// Start implements rm.Job.
func (j *job) Start() { j.proc.Start() }

// Nodes implements rm.Job.
func (j *job) Nodes() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.nodes...)
}

// Proctab returns the job's RPDTAB as known by the launcher (empty before
// MPIR_Breakpoint). The engine normally obtains it through the tracer
// (charged); this accessor exists for tests and the RM's own bookkeeping.
func (j *job) Proctab() proctab.Table {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append(proctab.Table(nil), j.ptab...)
}

// SpawnDaemons implements rm.Job.
func (j *job) SpawnDaemons(spec rm.DaemonSpec) error {
	res := j.send(command{kind: cmdSpawnDaemons, spec: spec})
	return res.err
}

// AllocateAndSpawn implements rm.Job.
func (j *job) AllocateAndSpawn(n int, spec rm.DaemonSpec) ([]string, error) {
	res := j.send(command{kind: cmdAllocSpawn, spec: spec, n: n})
	return res.nodes, res.err
}

// Kill implements rm.Job. It terminates the job even when the launcher
// itself is gone (killed directly, or lost with its node): the command is
// then served by the job's reaper instead of the launcher loop.
func (j *job) Kill() error {
	j.mu.Lock()
	if j.killed {
		j.mu.Unlock()
		return rm.ErrAlreadyKilled
	}
	j.mu.Unlock()
	res := j.send(command{kind: cmdKill})
	return res.err
}

// errLauncherGone fails control requests nobody is left to serve.
var errLauncherGone = errors.New("slurm: launcher gone")

func (j *job) send(c command) cmdResult {
	c.reply = vtime.NewChan[cmdResult](j.m.cl.Sim())
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
// kill request per node, issued in parallel from the front-end node (where
// srun ran), best-effort — dead nodes are skipped, their processes died
// with them. The flat fan-out trades the tree's message economy for
// independence from dead interior nodes.
func (j *job) directKill() error {
	j.mu.Lock()
	if j.killed {
		j.mu.Unlock()
		return rm.ErrAlreadyKilled
	}
	nodes := append([]string(nil), j.nodes...)
	nodes = append(nodes, j.mwNodes...)
	j.mu.Unlock()
	h := j.m.cl.FrontEnd().Host()
	sim := j.m.cl.Sim()
	wg := vtime.NewWaitGroup(sim)
	wg.Add(len(nodes))
	for _, node := range nodes {
		node := node
		sim.Go("slurm-direct-kill", func() {
			defer wg.Done()
			single := []string{node}
			_, _ = j.treeRequest(h, single, encodeKill(j.id, single))
		})
	}
	wg.Wait()
	j.mu.Lock()
	j.killed = true
	j.mu.Unlock()
	return nil
}

// launcherMain is the srun-like process body: allocate, launch the tasks
// through the slurmd tree, publish the MPIR symbols, stop at
// MPIR_Breakpoint, then service control commands.
func (j *job) launcherMain(p *cluster.Proc) {
	cfg := j.m.cfg

	// Early debug events a tracer observes while the launcher initializes
	// (library loads, thread creation). SLURM's count is scale-independent
	// — the property the paper credits for the flat 18 ms tracing cost.
	for i := 0; i < cfg.DebugEvents; i++ {
		p.DebugEvent(fmt.Sprintf("launcher-init-%d", i))
	}

	nodes, err := j.m.allocate(p.Host(), j.spec.Nodes, nil)
	if err != nil {
		p.SetSymbol(rm.SymDebugState, cluster.Symbol{Value: "alloc-failed: " + err.Error(), Size: 64})
		return
	}
	j.mu.Lock()
	j.nodes = nodes
	j.mu.Unlock()

	tab, err := j.treeLaunch(p, nodes)
	if err != nil {
		p.SetSymbol(rm.SymDebugState, cluster.Symbol{Value: "launch-failed: " + err.Error(), Size: 64})
		return
	}

	// Root-side per-task bookkeeping: stdio wiring, task records — the
	// linear-in-tasks term of T(job).
	p.Compute(time.Duration(len(tab)) * cfg.PerTaskRootCost)

	j.mu.Lock()
	j.ptab = tab
	j.mu.Unlock()

	// The tree merge delivers tasks grouped by the spawn tree's traversal
	// order; the APAI contract (and chunked publication) wants rank order.
	tab.SortByRank()
	rm.PublishProctab(p, tab)
	p.SetSymbol(rm.SymDebugState, cluster.Symbol{Value: "spawned", Size: 4})

	// The APAI rendezvous: a traced launcher stops here and the debugger
	// (the LaunchMON engine) harvests the proctable.
	p.DebugEvent(rm.BPName)

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
			err := j.treeSpawn(p, nodes, cmd.spec)
			// Root-side per-node ack processing for the daemon spawn.
			p.Compute(time.Duration(len(nodes)) * cfg.PerNodeSpawnRootCost)
			cmd.reply.Send(cmdResult{err: err})
		case cmdAllocSpawn:
			mwNodes, err := j.m.allocate(p.Host(), cmd.n, nodes)
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
			err = j.treeSpawn(p, mwNodes, cmd.spec)
			p.Compute(time.Duration(len(mwNodes)) * cfg.PerNodeSpawnRootCost)
			cmd.reply.Send(cmdResult{nodes: mwNodes, err: err})
		case cmdKill:
			err := j.treeKill(p, nodes)
			// The middleware allocation is disjoint from the job's nodes;
			// reap it through its own slurmd tree.
			j.mu.Lock()
			mw := append([]string(nil), j.mwNodes...)
			j.mu.Unlock()
			if err == nil && len(mw) > 0 {
				err = j.treeKill(p, mw)
			}
			if err != nil {
				// The tree root may have died with its node; fall back to
				// the flat best-effort reap so survivors are still cleaned.
				err = j.directKill()
			}
			j.mu.Lock()
			j.killed = true
			j.mu.Unlock()
			cmd.reply.Send(cmdResult{err: err})
			return
		}
	}
}

// treeRequest sends a raw request to the root slurmd of nodelist and
// returns the reply payload (past the error string, which it checks).
func (j *job) treeRequest(h *simnet.Host, nodelist []string, raw []byte) (*lmonp.Reader, error) {
	conn, err := h.Dial(simnet.Addr{Host: nodelist[0], Port: SlurmdPort})
	if err != nil {
		return nil, fmt.Errorf("slurm: root slurmd unreachable: %w", err)
	}
	defer conn.Close()
	if err := writeFrame(conn, raw); err != nil {
		return nil, err
	}
	resp, err := readFrame(conn)
	if err != nil {
		return nil, err
	}
	rd := lmonp.NewReader(resp)
	emsg, err := rd.String()
	if err != nil {
		return nil, err
	}
	if emsg != "" {
		return nil, errors.New(emsg)
	}
	return rd, nil
}

func (j *job) treeLaunch(p *cluster.Proc, nodes []string) (proctab.Table, error) {
	rd, err := j.treeRequest(p.Host(), nodes, encodeLaunch(j.id, j.spec.TasksPerNode, j.spec.Exe, nodes))
	if err != nil {
		return nil, err
	}
	enc, err := rd.Bytes()
	if err != nil {
		return nil, err
	}
	tab, err := proctab.Decode(enc)
	if err != nil {
		return nil, err
	}
	if err := tab.Validate(); err != nil {
		return nil, err
	}
	return tab, nil
}

func (j *job) treeSpawn(p *cluster.Proc, nodes []string, spec rm.DaemonSpec) error {
	rd, err := j.treeRequest(p.Host(), nodes, encodeSpawn(j.id, spec, nodes))
	if err != nil {
		return err
	}
	count, err := rd.Uint32()
	if err != nil {
		return err
	}
	if int(count) != len(nodes) {
		return fmt.Errorf("slurm: spawned %d daemons on %d nodes", count, len(nodes))
	}
	return nil
}

func (j *job) treeKill(p *cluster.Proc, nodes []string) error {
	_, err := j.treeRequest(p.Host(), nodes, encodeKill(j.id, nodes))
	return err
}
