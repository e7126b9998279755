package alps

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/lmonp"
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
	m, err := Install(cl)
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

// TestSpawnRequestEnvTravelsInKeyOrder stands in for apinit on two nodes
// and reads aprun's spawn requests as they arrive: the environment — the
// tool's variables and the four the RM adds — must be on the wire in key
// order, so the request is a function of the spawn and not of a map's
// iteration order.
func TestSpawnRequestEnvTravelsInKeyOrder(t *testing.T) {
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := rm.DaemonSpec{Exe: "d", Env: map[string]string{}}
	for i := 0; i < 16; i++ {
		spec.Env[fmt.Sprintf("TOOL_K%02d", i)] = fmt.Sprint(i)
	}
	requests := 0
	for i := 0; i < 2; i++ {
		if _, err := cl.Node(i).SpawnSystemProc(cluster.Spec{Exe: "apinit", Main: func(p *cluster.Proc) {
			rm.Serve(p, ApinitPort, func(rd *lmonp.Reader, reply rm.Reply) {
				rd.Uint32() // op
				rd.Uint32() // jobid
				exe, _, kv := rd.String(), rd.StringList(), rd.StringMap()
				if rd.Err() != nil || exe != "d" || len(kv) != 20 {
					t.Errorf("spawn request: exe %q, %d variables (%v)", exe, len(kv), rd.Err())
				}
				if !sort.SliceIsSorted(kv, func(a, b int) bool { return kv[a][0] < kv[b][0] }) {
					t.Errorf("environment not in key order on the wire: %v", kv)
				}
				requests++
				reply(nil, nil)
			})
		}}); err != nil {
			t.Fatal(err)
		}
	}
	sim.Go("aprun", func() {
		sim.Sleep(time.Millisecond) // the stand-ins are listening
		p, err := cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "aprun", Passive: true})
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 50; i++ {
			if err := (star{sim: sim}).Spawn(p, 7, []string{"node0", "node1"}, spec); err != nil {
				t.Error(err)
			}
		}
	})
	sim.Run()
	if requests != 100 {
		t.Errorf("%d spawn requests arrived, want 100", requests)
	}
}
