package rm_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/hostlist"
	"launchmon/internal/proctab"
	"launchmon/internal/rm"
	"launchmon/internal/rm/alps"
	"launchmon/internal/rm/bgl"
	"launchmon/internal/rm/slurm"
	"launchmon/internal/vtime"
)

// installFunc boots one resource manager onto a cluster.
type installFunc func(cl *cluster.Cluster) (rm.Manager, error)

// TestConformance holds every resource manager to the rm.Manager contract
// the engine is written against: the same cases, verbatim, over the slurmd
// tree, the BG/L profile of it, and the apinit star.
func TestConformance(t *testing.T) {
	for _, b := range []struct {
		name    string
		install installFunc
	}{
		{"slurm", func(cl *cluster.Cluster) (rm.Manager, error) { return slurm.Install(cl, slurm.Config{}) }},
		{"bgl-mpirun", bgl.Install},
		{"alps", func(cl *cluster.Cluster) (rm.Manager, error) { return alps.Install(cl) }},
	} {
		b := b
		t.Run(b.name, func(t *testing.T) { conformance(t, b.install) })
	}
}

// rig is one case's world: a cluster with the manager under test, and the
// two tool daemons the cases spawn — "blocker" runs until killed, "reporter"
// records where it ran and with what environment.
type rig struct {
	sim      *vtime.Sim
	cl       *cluster.Cluster
	m        rm.Manager
	reported []report
}

type report struct {
	node string
	env  map[string]string
}

// conformance runs every case against a fresh installation by install.
func conformance(t *testing.T, install installFunc) {
	for _, c := range []struct {
		name  string
		nodes int
		run   func(t *testing.T, r *rig)
	}{
		{"rank-sorted proctab at the breakpoint", 8, proctabAtBreakpoint},
		{"daemons co-located with the RM environment", 6, daemonsCoLocated},
		{"MW allocation disjoint from the job", 10, mwAllocationDisjoint},
		{"insufficient nodes", 4, insufficientNodes},
		{"kill removes tasks and daemons", 4, killRemovesTasksAndDaemons},
		{"kill reaps MW daemons", 5, killReapsMWDaemons},
		{"kill after launcher exit", 4, killAfterLauncherExit},
		{"killed job is not found", 2, killedJobNotFound},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sim := vtime.New()
			cl, err := cluster.New(sim, cluster.Options{Nodes: c.nodes})
			if err != nil {
				t.Fatal(err)
			}
			m, err := install(cl)
			if err != nil {
				t.Fatal(err)
			}
			r := &rig{sim: sim, cl: cl, m: m}
			cl.Register("blocker", func(p *cluster.Proc) { vtime.NewChan[int](p.Sim()).Recv() })
			cl.Register("reporter", func(p *cluster.Proc) {
				r.reported = append(r.reported, report{p.Node().Name(), p.Environ()})
			})
			sim.Go("test", func() { c.run(t, r) })
			sim.Run()
		})
	}
}

// toBreakpoint starts a held job under a tracer and drives it to
// MPIR_Breakpoint, where the launcher stays stopped. ok is false (and the
// failure reported) when it does not get there.
func (r *rig) toBreakpoint(t *testing.T, spec rm.JobSpec) (j rm.Job, tr *cluster.Tracer, ok bool) {
	t.Helper()
	j, err := r.m.StartJobHeld(spec)
	if err != nil {
		t.Error(err)
		return nil, nil, false
	}
	tr, err = j.LauncherProc().Attach()
	if err != nil {
		t.Error(err)
		return nil, nil, false
	}
	j.Start()
	for {
		ev, open := tr.Events().Recv()
		if !open || ev.Type == cluster.EventExit {
			t.Error("launcher exited before MPIR_Breakpoint")
			return nil, nil, false
		}
		if ev.Reason == rm.BPName {
			return j, tr, true
		}
		if err := tr.Continue(); err != nil {
			t.Error(err)
			return nil, nil, false
		}
	}
}

// running is toBreakpoint for cases about the job after its launch: the
// launcher is resumed and left untraced, servicing commands.
func (r *rig) running(t *testing.T, spec rm.JobSpec) (rm.Job, bool) {
	t.Helper()
	j, tr, ok := r.toBreakpoint(t, spec)
	if ok {
		tr.Detach()
	}
	return j, ok
}

// residents is the process count of a node that runs nothing but the RM's
// own node daemon.
const residents = 1

func proctabAtBreakpoint(t *testing.T, r *rig) {
	// Enough tasks for the publication to take several chunks.
	const tpn = 1024
	j, tr, ok := r.toBreakpoint(t, rm.JobSpec{Exe: "app", Nodes: 8, TasksPerNode: tpn})
	if !ok {
		return
	}
	// The launcher is stopped at the breakpoint; read the APAI data while
	// stopped (the MPIR contract).
	tab, err := rm.ProctabFromLauncher(tr)
	var chunks [][]byte
	if err == nil {
		err = rm.ReadProctabChunks(tr, func(chunk []byte, _, _ int) error {
			chunks = append(chunks, chunk)
			return nil
		})
	}
	tr.Detach()
	if err != nil {
		t.Error(err)
		return
	}
	nodes := j.Nodes()
	if len(tab) != 8*tpn || len(tab.Hosts()) != 8 || len(nodes) != 8 {
		t.Errorf("proctab has %d entries on %d hosts, job spans %v", len(tab), len(tab.Hosts()), nodes)
		return
	}
	if err := tab.Validate(); err != nil {
		t.Error(err)
	}
	for i, d := range tab {
		// Published in rank order, block distribution: rank r on node r/tpn.
		if d.Rank != i || d.Host != nodes[i/tpn] || d.Exe != "app" {
			t.Errorf("entry %d = %+v, want rank %d of app on %s", i, d, i, nodes[i/tpn])
			return
		}
	}
	// Every RM publishes the chunks the rank-sorted table encodes to.
	want := tab.EncodeChunks(proctab.DefaultChunkBytes)
	if len(want) < 2 || !slices.EqualFunc(chunks, want, bytes.Equal) {
		t.Errorf("published %d chunks, want the %d of the rank-sorted table byte for byte", len(chunks), len(want))
	}
}

func daemonsCoLocated(t *testing.T, r *rig) {
	j, ok := r.running(t, rm.JobSpec{Exe: "app", Nodes: 6, TasksPerNode: 2})
	if !ok {
		return
	}
	err := j.SpawnDaemons(rm.DaemonSpec{Exe: "reporter", Env: map[string]string{"LMON_FE_ADDR": "fe0:5555"}})
	if err != nil {
		t.Error(err)
	}
	r.sim.Sleep(time.Second) // every daemon has run
	if len(r.reported) != 6 {
		t.Errorf("%d daemons ran, want 6", len(r.reported))
	}
	ids := map[string]bool{}
	for _, d := range r.reported {
		env := d.env
		id, err := strconv.Atoi(env[rm.EnvNodeID])
		list := hostlist.Expand(env[rm.EnvNodeList])
		if err != nil || id < 0 || id >= len(list) || list[id] != d.node || ids[env[rm.EnvNodeID]] {
			t.Errorf("daemon on %s: %s=%q does not place it in %s=%q",
				d.node, rm.EnvNodeID, env[rm.EnvNodeID], rm.EnvNodeList, env[rm.EnvNodeList])
		}
		ids[env[rm.EnvNodeID]] = true
		if len(list) != 6 || env[rm.EnvNNodes] != "6" || env[rm.EnvJobID] != fmt.Sprint(j.ID()) || env["LMON_FE_ADDR"] != "fe0:5555" {
			t.Errorf("daemon on %s: environment %v", d.node, env)
		}
	}
}

func mwAllocationDisjoint(t *testing.T, r *rig) {
	j, ok := r.running(t, rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 2})
	if !ok {
		return
	}
	mw, err := j.AllocateAndSpawn(3, rm.DaemonSpec{Exe: "reporter"})
	if err != nil || len(mw) != 3 {
		t.Errorf("AllocateAndSpawn(3) = %v, %v", mw, err)
		return
	}
	r.sim.Sleep(time.Second)
	inJob := map[string]bool{}
	for _, n := range j.Nodes() {
		inJob[n] = true
	}
	for i, n := range mw {
		if inJob[n] {
			t.Errorf("MW node %s overlaps the job's allocation", n)
		}
		if i >= len(r.reported) || r.reported[i].env[rm.EnvNNodes] != "3" {
			t.Errorf("MW daemons ran as %v", r.reported)
			break
		}
	}
}

func insufficientNodes(t *testing.T, r *rig) {
	if _, err := r.m.StartJob(rm.JobSpec{Exe: "app", Nodes: 5, TasksPerNode: 1}); !errors.Is(err, rm.ErrInsufficient) {
		t.Errorf("job larger than the cluster: %v, want ErrInsufficient", err)
	}
	j, ok := r.running(t, rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 1})
	if !ok {
		return
	}
	if _, err := j.AllocateAndSpawn(2, rm.DaemonSpec{Exe: "reporter"}); !errors.Is(err, rm.ErrInsufficient) {
		t.Errorf("MW allocation beyond the cluster: %v, want ErrInsufficient", err)
	}
}

func killRemovesTasksAndDaemons(t *testing.T, r *rig) {
	j, ok := r.running(t, rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 2})
	if !ok {
		return
	}
	if err := j.SpawnDaemons(rm.DaemonSpec{Exe: "blocker"}); err != nil {
		t.Error(err)
		return
	}
	if got := r.cl.Node(0).NumProcs(); got != residents+2+1 {
		t.Errorf("node0 runs %d processes before the kill, want 2 tasks + 1 daemon + the RM's", got)
	}
	if err := j.Kill(); err != nil {
		t.Error(err)
	}
	for i := 0; i < 4; i++ {
		if got := r.cl.Node(i).NumProcs(); got != residents {
			t.Errorf("node%d runs %d processes after the kill, want only the RM's", i, got)
		}
	}
	if err := j.Kill(); !errors.Is(err, rm.ErrAlreadyKilled) {
		t.Errorf("second kill: %v, want ErrAlreadyKilled", err)
	}
}

func killReapsMWDaemons(t *testing.T, r *rig) {
	j, ok := r.running(t, rm.JobSpec{Exe: "app", Nodes: 2, TasksPerNode: 1})
	if !ok {
		return
	}
	mw, err := j.AllocateAndSpawn(2, rm.DaemonSpec{Exe: "blocker"})
	if err != nil {
		t.Error(err)
		return
	}
	if err := j.Kill(); err != nil {
		t.Error(err)
	}
	for _, name := range mw {
		if n, _ := r.cl.NodeByName(name); n.NumProcs() != residents {
			t.Errorf("MW node %s runs %d processes after the kill, want only the RM's", name, n.NumProcs())
		}
	}
}

func killAfterLauncherExit(t *testing.T, r *rig) {
	// The allocator never frees nodes, so a second full-width job finds none
	// and its launcher exits on the failed allocation.
	if _, ok := r.running(t, rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 1}); !ok {
		return
	}
	j, err := r.m.StartJob(rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 1})
	if err != nil {
		t.Error(err)
		return
	}
	j.LauncherProc().Wait()
	if j.LauncherProc().State() != cluster.StateExited {
		t.Error("launcher of the unplaceable job still runs at teardown")
		return
	}
	if err := j.SpawnDaemons(rm.DaemonSpec{Exe: "blocker"}); err == nil {
		t.Error("spawned daemons through a launcher that is gone")
	}
	start := r.sim.Now()
	err = j.Kill()
	if err != nil || r.sim.Stopped() || r.sim.Now()-start > time.Second {
		t.Errorf("kill after launcher exit: %v after %v (simulator torn down: %v), want nil in bounded virtual time",
			err, r.sim.Now()-start, r.sim.Stopped())
	}
}

func killedJobNotFound(t *testing.T, r *rig) {
	j, ok := r.running(t, rm.JobSpec{Exe: "app", Nodes: 2, TasksPerNode: 1})
	if !ok {
		return
	}
	if got, ok := r.m.FindJob(j.ID()); !ok || got.ID() != j.ID() {
		t.Errorf("FindJob(%d) of a running job = %v, %v", j.ID(), got, ok)
	}
	if _, ok := r.m.FindJob(j.ID() + 1); ok {
		t.Error("found a job that was never started")
	}
	if err := j.Kill(); err != nil {
		t.Error(err)
	}
	if _, ok := r.m.FindJob(j.ID()); ok {
		t.Error("FindJob still reports a killed job")
	}
}
