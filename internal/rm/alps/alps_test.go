package alps

import (
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/rm"
	"launchmon/internal/vtime"
)

// The rm.Manager contract every backend owes the engine is tested once, in
// internal/rm/conformance_test.go; what stays here drives the apinit star.

func testRig(t *testing.T, nodes int) (*vtime.Sim, *cluster.Cluster, *Manager) {
	t.Helper()
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Install(cl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return sim, cl, m
}

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
		if !ok || ev.Type == cluster.EventExit {
			t.Fatal("aprun exited before MPIR_Breakpoint")
		}
		if ev.Reason == rm.BPName {
			return j, tr
		}
		if err := tr.Continue(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStarLaunchProctabValid(t *testing.T) {
	sim, _, m := testRig(t, 6)
	sim.Go("test", func() {
		_, tr := launchToBreakpoint(t, m, rm.JobSpec{Exe: "app", Nodes: 6, TasksPerNode: 4})
		tab, err := rm.ProctabFromLauncher(tr)
		if err != nil {
			t.Error(err)
			return
		}
		if len(tab) != 24 {
			t.Errorf("proctab has %d entries", len(tab))
		}
		if err := tab.Validate(); err != nil {
			t.Error(err)
		}
		if got := len(tab.Hosts()); got != 6 {
			t.Errorf("proctab spans %d hosts", got)
		}
		tr.Detach()
	})
	sim.Run()
}

func TestStarSpawnDaemonsCoLocatedWithEnv(t *testing.T) {
	sim, cl, m := testRig(t, 5)
	var hosts []string
	var envs []map[string]string
	cl.Register("toolbe", func(p *cluster.Proc) {
		hosts = append(hosts, p.Node().Name())
		envs = append(envs, p.Environ())
	})
	sim.Go("test", func() {
		j, tr := launchToBreakpoint(t, m, rm.JobSpec{Exe: "app", Nodes: 5, TasksPerNode: 2})
		if err := tr.Continue(); err != nil {
			t.Error(err)
			return
		}
		if err := j.SpawnDaemons(rm.DaemonSpec{Exe: "toolbe", Env: map[string]string{"X": "y"}}); err != nil {
			t.Error(err)
		}
		tr.Detach()
	})
	sim.Run()
	if len(hosts) != 5 {
		t.Fatalf("daemons on %d nodes", len(hosts))
	}
	seen := map[string]bool{}
	for i, h := range hosts {
		seen[h] = true
		if envs[i][rm.EnvNNodes] != "5" || envs[i][rm.EnvNodeList] == "" || envs[i]["X"] != "y" {
			t.Errorf("daemon %d env incomplete: %v", i, envs[i])
		}
	}
	if len(seen) != 5 {
		t.Fatal("daemons not 1/node")
	}
}

func TestKillClearsNodes(t *testing.T) {
	sim, cl, m := testRig(t, 4)
	cl.Register("toolbe", func(p *cluster.Proc) { vtime.NewChan[int](p.Sim()).Recv() })
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
		tr.Detach()
		if err := j.Kill(); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 4; i++ {
			if got := cl.Node(i).NumProcs(); got != 1 {
				t.Errorf("node%d has %d procs after kill, want 1 (apinit)", i, got)
			}
		}
	})
	sim.Run()
}

func TestPipelinedLaunchFasterThanSerialSubmit(t *testing.T) {
	// The star pipelines remote forks: total launch must be far below
	// nodes × (submit + fork + rtt) serial time.
	sim, _, m := testRig(t, 32)
	var dur time.Duration
	sim.Go("test", func() {
		start := sim.Now()
		_, tr := launchToBreakpoint(t, m, rm.JobSpec{Exe: "app", Nodes: 32, TasksPerNode: 8})
		dur = sim.Now() - start
		tr.Detach()
	})
	sim.Run()
	if dur == 0 {
		t.Fatal("launch did not complete")
	}
	serialFloor := 32 * (8*900*time.Microsecond + time.Millisecond) // forks if fully serial
	if dur >= serialFloor {
		t.Fatalf("star launch %v not pipelined (serial floor %v)", dur, serialFloor)
	}
}
