package slurm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/iccl"
	"launchmon/internal/lmonp"
	"launchmon/internal/proctab"
	"launchmon/internal/rm"
	"launchmon/internal/vtime"
)

// The rm.Manager contract every backend owes the engine is tested once, in
// internal/rm/conformance_test.go, against slurm, bgl and alps alike. What
// stays here drives this package's own code — the slurmd tree and the
// slurm cost profile — through the shared skeleton.

// testRig boots a cluster with the RM installed.
func testRig(t *testing.T, nodes int, cfg Config) (*vtime.Sim, *cluster.Cluster, *Manager) {
	t.Helper()
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Install(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim, cl, m
}

// launchToBreakpoint starts a held job under a tracer and drives it to
// MPIR_Breakpoint, returning the tracer. Must run inside a sim goroutine.
func launchToBreakpoint(t *testing.T, m *Manager, spec rm.JobSpec) (rm.Job, *cluster.Tracer) {
	t.Helper()
	j, err := m.StartJobHeld(spec)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := j.LauncherProc().Attach()
	if err != nil {
		t.Fatal(err)
	}
	j.Start()
	for {
		ev, ok := tr.Events().Recv()
		if !ok {
			t.Fatal("launcher exited before MPIR_Breakpoint")
		}
		if ev.Type == cluster.EventExit {
			t.Fatal("launcher exited before MPIR_Breakpoint")
		}
		if ev.Reason == rm.BPName {
			return j, tr
		}
		if err := tr.Continue(); err != nil {
			t.Fatal(err)
		}
	}
}

// publishedTable reads the RPDTAB a launcher past MPIR_Breakpoint has
// published, the way a debugger attaching late would.
func publishedTable(t *testing.T, j rm.Job) proctab.Table {
	t.Helper()
	tab, err := rm.ReadProctab(j.LauncherProc())
	if err != nil {
		t.Error(err)
	}
	return tab
}

func TestLaunchReachesBreakpointWithValidProctab(t *testing.T) {
	sim, _, m := testRig(t, 8, Config{})
	sim.Go("test", func() {
		j, tr := launchToBreakpoint(t, m, rm.JobSpec{Exe: "app", Nodes: 8, TasksPerNode: 4})
		// The launcher is stopped at the breakpoint; read the APAI data
		// while stopped (the MPIR contract), then resume it.
		tab, err := rm.ProctabFromLauncher(tr)
		if err != nil {
			t.Error(err)
			return
		}
		if len(tab) != 32 {
			t.Errorf("proctab has %d entries, want 32", len(tab))
		}
		if err := tab.Validate(); err != nil {
			t.Error(err)
		}
		if got := len(tab.Hosts()); got != 8 {
			t.Errorf("proctab spans %d hosts, want 8", got)
		}
		// Block distribution: rank r on node r/4.
		for _, d := range tab {
			want := fmt.Sprintf("node%d", d.Rank/4)
			if d.Host != want {
				t.Errorf("rank %d on %s, want %s", d.Rank, d.Host, want)
			}
		}
		if len(j.Nodes()) != 8 {
			t.Errorf("job nodes = %v", j.Nodes())
		}
	})
	sim.Run()
}

func TestDebugEventCountScaleFree(t *testing.T) {
	_, _, m := testRig(t, 4, Config{})
	small := m.DebugEventCount(rm.JobSpec{Nodes: 1, TasksPerNode: 1})
	big := m.DebugEventCount(rm.JobSpec{Nodes: 1024, TasksPerNode: 8})
	if small != big {
		t.Fatalf("debug event count varies with scale: %d vs %d", small, big)
	}
	if small != 11 {
		t.Fatalf("default debug events = %d, want 11 (12 stops with the breakpoint)", small)
	}
}

func TestTracerSeesConfiguredDebugEvents(t *testing.T) {
	sim, _, m := testRig(t, 2, Config{DebugEvents: 5})
	events := 0
	sim.Go("test", func() {
		_, tr := launchToBreakpoint(t, m, rm.JobSpec{Exe: "a", Nodes: 2, TasksPerNode: 1})
		_ = tr
	})
	// Count by re-running with an explicit counter.
	sim.Run()
	sim2 := vtime.New()
	cl2, _ := cluster.New(sim2, cluster.Options{Nodes: 2})
	m2, _ := Install(cl2, Config{DebugEvents: 5})
	sim2.Go("test", func() {
		j, _ := m2.StartJobHeld(rm.JobSpec{Exe: "a", Nodes: 2, TasksPerNode: 1})
		tr, _ := j.LauncherProc().Attach()
		j.Start()
		for {
			ev, ok := tr.Events().Recv()
			if !ok || ev.Type == cluster.EventExit {
				t.Error("launcher died early")
				return
			}
			if ev.Reason == rm.BPName {
				return
			}
			events++
			tr.Continue()
		}
	})
	sim2.Run()
	if events != 5 {
		t.Fatalf("saw %d pre-breakpoint events, want 5", events)
	}
}

func TestSpawnDaemonsCoLocated(t *testing.T) {
	sim, cl, m := testRig(t, 6, Config{})
	var gotNodes []string
	var gotEnv []map[string]string
	cl.Register("toolbe", func(p *cluster.Proc) {
		gotNodes = append(gotNodes, p.Node().Name())
		gotEnv = append(gotEnv, p.Environ())
		// Daemon stays alive briefly.
		p.Compute(time.Millisecond)
	})
	sim.Go("test", func() {
		j, tr := launchToBreakpoint(t, m, rm.JobSpec{Exe: "app", Nodes: 6, TasksPerNode: 2})
		if err := tr.Continue(); err != nil {
			t.Error(err)
			return
		}
		err := j.SpawnDaemons(rm.DaemonSpec{Exe: "toolbe", Env: map[string]string{"LMON_FE_ADDR": "fe0:5555"}})
		if err != nil {
			t.Error(err)
		}
		tr.Detach()
	})
	sim.Run()
	if len(gotNodes) != 6 {
		t.Fatalf("daemons ran on %d nodes, want 6", len(gotNodes))
	}
	seen := map[string]bool{}
	for i, n := range gotNodes {
		seen[n] = true
		env := gotEnv[i]
		if env["LMON_FE_ADDR"] != "fe0:5555" {
			t.Errorf("daemon %d missing tool env", i)
		}
		if env[rm.EnvNNodes] != "6" {
			t.Errorf("daemon %d NNODES = %q", i, env[rm.EnvNNodes])
		}
		if env[rm.EnvNodeList] == "" || env[rm.EnvNodeID] == "" || env[rm.EnvJobID] == "" {
			t.Errorf("daemon %d missing RM env: %v", i, env)
		}
	}
	if len(seen) != 6 {
		t.Fatalf("daemons not co-located 1/node: %v", gotNodes)
	}
}

func TestAllocateInsufficientNodes(t *testing.T) {
	sim, _, m := testRig(t, 4, Config{})
	sim.Go("test", func() {
		j, tr := launchToBreakpoint(t, m, rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 1})
		if err := tr.Continue(); err != nil {
			t.Error(err)
			return
		}
		if _, err := j.AllocateAndSpawn(2, rm.DaemonSpec{Exe: "x"}); err == nil {
			t.Error("overallocation succeeded")
		}
		tr.Detach()
	})
	sim.Run()
}

func TestJobTooLargeRejected(t *testing.T) {
	_, _, m := testRig(t, 2, Config{})
	if _, err := m.StartJob(rm.JobSpec{Exe: "a", Nodes: 5, TasksPerNode: 1}); !errors.Is(err, rm.ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
}

func TestKillRemovesTasksAndDaemons(t *testing.T) {
	sim, cl, m := testRig(t, 4, Config{})
	cl.Register("toolbe", func(p *cluster.Proc) {
		// Daemon blocks forever (until killed).
		c := vtime.NewChan[int](p.Sim())
		c.Recv()
	})
	sim.Go("test", func() {
		j, tr := launchToBreakpoint(t, m, rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 2})
		if err := tr.Continue(); err != nil {
			t.Error(err)
			return
		}
		if err := j.SpawnDaemons(rm.DaemonSpec{Exe: "toolbe"}); err != nil {
			t.Error(err)
			return
		}
		// 2 tasks + 1 daemon + 1 slurmd per node.
		if got := cl.Node(0).NumProcs(); got != 4 {
			t.Errorf("node0 has %d procs before kill, want 4", got)
		}
		tr.Detach()
		if err := j.Kill(); err != nil {
			t.Error(err)
			return
		}
		if got := cl.Node(0).NumProcs(); got != 1 {
			t.Errorf("node0 has %d procs after kill, want 1 (slurmd)", got)
		}
		if err := j.Kill(); !errors.Is(err, rm.ErrAlreadyKilled) {
			t.Errorf("second kill: %v", err)
		}
	})
	sim.Run()
}

func TestKillThroughDeepTree(t *testing.T) {
	// A fanout-2 tree over 9 nodes has depth 4: kill must reach every leaf.
	sim, cl, m := testRig(t, 9, Config{Fanout: 2})
	cl.Register("toolbe", func(p *cluster.Proc) {
		vtime.NewChan[int](p.Sim()).Recv()
	})
	sim.Go("test", func() {
		j, tr := launchToBreakpoint(t, m, rm.JobSpec{Exe: "app", Nodes: 9, TasksPerNode: 2})
		if err := tr.Continue(); err != nil {
			t.Error(err)
			return
		}
		if err := j.SpawnDaemons(rm.DaemonSpec{Exe: "toolbe"}); err != nil {
			t.Error(err)
			return
		}
		tr.Detach()
		if err := j.Kill(); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 9; i++ {
			if got := cl.Node(i).NumProcs(); got != 1 {
				t.Errorf("node%d has %d procs after deep-tree kill", i, got)
			}
		}
	})
	sim.Run()
}

func TestFindJob(t *testing.T) {
	sim, _, m := testRig(t, 2, Config{})
	sim.Go("test", func() {
		j, err := m.StartJob(rm.JobSpec{Exe: "app", Nodes: 2, TasksPerNode: 1})
		if err != nil {
			t.Error(err)
			return
		}
		got, ok := m.FindJob(j.ID())
		if !ok || got.ID() != j.ID() {
			t.Error("FindJob failed")
		}
		if _, ok := m.FindJob(999); ok {
			t.Error("FindJob(999) succeeded")
		}
	})
	sim.Run()
}

func TestUntracedJobRunsToBreakpointAlone(t *testing.T) {
	sim, _, m := testRig(t, 3, Config{})
	var tab int
	sim.Go("test", func() {
		j, err := m.StartJob(rm.JobSpec{Exe: "app", Nodes: 3, TasksPerNode: 2})
		if err != nil {
			t.Error(err)
			return
		}
		// Give the launch time to complete, then attach and read directly.
		sim.Sleep(5 * time.Second)
		tab = len(publishedTable(t, j))
	})
	sim.Run()
	if tab != 6 {
		t.Fatalf("untraced job proctab has %d entries, want 6", tab)
	}
}

func TestLaunchCostScalesWithTasks(t *testing.T) {
	timeFor := func(nodes, tpn int) time.Duration {
		sim := vtime.New()
		cl, _ := cluster.New(sim, cluster.Options{Nodes: nodes})
		m, _ := Install(cl, Config{})
		var dur time.Duration
		sim.Go("test", func() {
			start := sim.Now()
			j, err := m.StartJobHeld(rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: tpn})
			if err != nil {
				return
			}
			tr, _ := j.LauncherProc().Attach()
			j.Start()
			for {
				ev, ok := tr.Events().Recv()
				if !ok || ev.Type == cluster.EventExit {
					return
				}
				if ev.Reason == rm.BPName {
					dur = sim.Now() - start
					tr.Detach()
					return
				}
				tr.Continue()
			}
		})
		sim.Run()
		return dur
	}
	small := timeFor(8, 8)
	big := timeFor(64, 8)
	if small == 0 || big == 0 {
		t.Fatal("launch did not complete")
	}
	if big <= small {
		t.Fatalf("T(job) not increasing: %v (64 tasks) vs %v (512 tasks)", small, big)
	}
	// Should be roughly linear in tasks: 8x tasks => between 2x and 12x.
	if big > 12*small || big < 2*small {
		t.Fatalf("T(job) scaling off: %v -> %v", small, big)
	}
}

// Property: for any fanout and node count, the k-ary children ranges
// partition 1..n-1 exactly, and are ICCL's tree.
func TestPropertyTreeChildrenPartition(t *testing.T) {
	f := func(nRaw, fRaw uint8) bool {
		n := int(nRaw%200) + 1
		fanout := int(fRaw%8) + 1
		seen := make([]int, n)
		for self := 0; self < n; self++ {
			first, end := kidRange(self, n, fanout)
			if want := iccl.Children(self, n, fanout); end-first != len(want) || len(want) > 0 && want[0] != first {
				return false
			}
			for c := first; c < end; c++ {
				if c <= self || c >= n {
					return false
				}
				seen[c]++
			}
		}
		for i := 1; i < n; i++ {
			if seen[i] != 1 {
				return false
			}
		}
		return seen[0] == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: proctab from launch is always valid with exactly n*tpn entries
// across any small cluster shape.
func TestPropertyLaunchProctabValid(t *testing.T) {
	f := func(nRaw, tRaw uint8) bool {
		nodes := int(nRaw%6) + 1
		tpn := int(tRaw%4) + 1
		sim := vtime.New()
		cl, err := cluster.New(sim, cluster.Options{Nodes: nodes})
		if err != nil {
			return false
		}
		m, err := Install(cl, Config{Fanout: 2})
		if err != nil {
			return false
		}
		ok := true
		sim.Go("test", func() {
			j, err := m.StartJob(rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: tpn})
			if err != nil {
				ok = false
				return
			}
			sim.Sleep(10 * time.Second)
			tab := publishedTable(t, j)
			if len(tab) != nodes*tpn || tab.Validate() != nil {
				ok = false
			}
		})
		sim.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSpawnRequestCarriesTheSharedDaemonSpecRecord: the tree request is
// slurmd's own fields around rm.AppendDaemonSpec's bytes (key order, pinned
// in internal/rm) — the same bytes every time for the same spawn.
func TestSpawnRequestCarriesTheSharedDaemonSpecRecord(t *testing.T) {
	d := rm.DaemonSpec{Exe: "d", Args: []string{"-v"}, Env: map[string]string{}}
	for i := 0; i < 16; i++ {
		d.Env[fmt.Sprintf("LMON_K%02d", i)] = fmt.Sprint(i)
	}
	nodes := []string{"node0", "node1", "node2"}
	want := lmonp.AppendUint32(lmonp.AppendUint32(lmonp.AppendUint32(nil, opSpawn), 0), 7)
	want = lmonp.AppendString(rm.AppendDaemonSpec(want, d), joinNodes(nodes))
	for i := 0; i < 100; i++ {
		if got := encodeSpawn(7, d, nodes); !bytes.Equal(got, want) {
			t.Fatalf("encoding %d:\n got %q\nwant %q", i, got, want)
		}
	}
}
