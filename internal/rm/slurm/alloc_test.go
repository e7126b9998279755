package slurm

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"launchmon/internal/cluster"
	"launchmon/internal/rm"
	"launchmon/internal/simnet"
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

// TestIdleNodeHeap holds what an idle node keeps: a 4096-node cluster with
// slurm installed, its heap read at rest in the test goroutine's turn,
// behind the slurmd mains machine boot queued. A node is its cluster.Node,
// simnet.Host and one listener, its slurmd and the slurmd's bare Proc, and
// the allocator's bit for it (DESIGN.md "Simulator cost model"). The figure
// is the one this layout measures and must stay within 3 %: above,
// something per node grew; below, record the saving here. A listener map a
// host, a cold part for every slurmd and a node-name map in the allocator
// kept 968 B.
func TestIdleNodeHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the test's behalf")
	}
	// A host is what every node keeps whether or not anything runs on it.
	if size := unsafe.Sizeof(simnet.Host{}); size > 80 {
		t.Errorf("simnet.Host is %d B, want at most 80 (one size class)", size)
	}
	const nodes = 4096
	const wantBytes = 627.0
	base := liveHeap()
	sim, cl, m := testRig(t, nodes, Config{})
	var idle int64
	sim.Go("test", func() { idle = liveHeap() })
	sim.Run()
	runtime.KeepAlive(cl)
	runtime.KeepAlive(m)
	per := float64(idle-base) / nodes
	t.Logf("%.1f B an idle node", per)
	if per > 1.03*wantBytes || per < 0.97*wantBytes {
		t.Errorf("an idle node keeps %.1f B, want within 3 %% of %.0f", per, wantBytes)
	}
}

// liveHeap is the heap in use once the garbage is collected.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestKilledJobLeavesLittleHeapPerNode is the retention guard of a node's
// job table: what a 4096-node job, launched and killed, leaves live above
// the installed RM once Run has returned. That is 43 B a node: the node
// list's expansion, which hostlist interns (≈ 35 B), and each slurmd
// listener's drained accept queue (8 B). The bound is the highest of 20
// runs, 45 B, plus 20 B. A job table kept as a map per node left 323 B, its
// storage outliving the kill's delete. 110 B was read while the scheduler
// kept its burst arrays (Sim.timers, ready, readySeq) after Run, ≈ 103 B,
// and the allocator's node-name map, freed at teardown, took its share
// back off the reading.
func TestKilledJobLeavesLittleHeapPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the test's behalf")
	}
	const nodes = 4096
	const bound = 65 // B a node
	sim, _, m := testRig(t, nodes, Config{})
	// The baseline is read in the test goroutine's turn, behind the slurmd
	// mains machine boot queued: the installed RM is what they left.
	var installed int64
	sim.Go("test", func() {
		installed = liveHeap()
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
	per := float64(liveHeap()-installed) / nodes
	runtime.KeepAlive(m)
	t.Logf("%.0f B a node left live", per)
	if per > bound {
		t.Errorf("a launched and killed job leaves %.0f B a node live, want at most %d", per, bound)
	}
}
