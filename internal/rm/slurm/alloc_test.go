package slurm

import (
	"runtime"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/rm"
)

// TestTreeRequestsAllocateLittlePerNode is the allocation guard of the
// slurmd tree: an untraced job of 1024 nodes × 1 task, then one tool daemon
// spawned on every node, allocates at most 70 objects and 5 600 B a node —
// both tree requests at every node with their forwards, replies and forks,
// and the launcher's and the simulator's share (≈ 66 and 5 200). A closure
// per callback, a map-pooled reply and the daemon spec decoded at every
// node cost 85.9 and 6 345.
func TestTreeRequestsAllocateLittlePerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the test's behalf")
	}
	const nodes = 1024
	sim, cl, m := testRig(t, nodes, Config{})
	cl.Register("toolbe", func(*cluster.Proc) {})
	sim.Go("test", func() {
		j, err := m.StartJob(rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: 1})
		if err != nil {
			t.Error(err)
			return
		}
		sim.Sleep(10 * time.Second) // launched
		if err := j.SpawnDaemons(rm.DaemonSpec{Exe: "toolbe", Args: []string{"-v"}, Env: map[string]string{"LMON_FE_ADDR": "fe0:5555"}}); err != nil {
			t.Error(err)
		}
	})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sim.Run()
	runtime.ReadMemStats(&m1)
	objs := float64(m1.Mallocs-m0.Mallocs) / nodes
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / nodes
	t.Logf("%.1f objects and %.0f B a node", objs, bytes)
	if objs > 70 || bytes > 5600 {
		t.Errorf("a launch and a spawn allocate %.1f objects and %.0f B a node, want at most 70 and 5 600", objs, bytes)
	}
}

// TestFatLaunchAllocatesNoTablePerTask is the allocation guard of the
// launcher's publication: an untraced job of 64 nodes × 256 tasks allocates
// at least 40 B a task less than the 256.6 B a task it read when the
// launcher decoded the reply into a 48 B-an-entry table and sorted it
// (256.6–258.3 over repeated runs; ≈ 211 since it publishes from the reply).
func TestFatLaunchAllocatesNoTablePerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the test's behalf")
	}
	const nodes, tpn = 64, 256
	sim, _, m := testRig(t, nodes, Config{})
	sim.Go("test", func() {
		if _, err := m.StartJob(rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: tpn}); err != nil {
			t.Error(err)
		}
	})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sim.Run()
	runtime.ReadMemStats(&m1)
	per := float64(m1.TotalAlloc-m0.TotalAlloc) / (nodes * tpn)
	t.Logf("%.1f B a task", per)
	const decodedTable = 256.6
	if per > decodedTable-40 {
		t.Errorf("a 64 × 256 launch allocates %.1f B a task, want at most %.1f", per, decodedTable-40)
	}
}

// TestKilledJobLeavesLittleHeapPerNode is the retention guard of a node's
// job table: what a 4096-node job, launched and killed, leaves live above
// the installed RM is at least 200 B a node below the 323 B a map per node
// left (its storage outlives the kill's delete; 323–359 B over repeated
// runs, the first in a process the highest).
func TestKilledJobLeavesLittleHeapPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the test's behalf")
	}
	const nodes = 4096
	sim, _, m := testRig(t, nodes, Config{})
	live := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// The baseline is read in the test goroutine's turn, behind the slurmd
	// mains machine boot queued: the installed RM is what they left.
	var installed int64
	sim.Go("test", func() {
		installed = live()
		j, err := m.StartJob(rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: 1})
		if err != nil {
			t.Error(err)
			return
		}
		sim.Sleep(10 * time.Second) // launched
		if err := j.Kill(); err != nil {
			t.Error(err)
		}
	})
	sim.Run()
	per := float64(live()-installed) / nodes
	runtime.KeepAlive(m)
	t.Logf("%.0f B a node left live", per)
	const mapPerNode = 323
	if per > mapPerNode-200 {
		t.Errorf("a launched and killed job leaves %.0f B a node live, want at most %d", per, mapPerNode-200)
	}
}
