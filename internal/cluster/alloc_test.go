package cluster

import (
	"runtime"
	"testing"
	"unsafe"

	"launchmon/internal/vtime"
)

const spawnBatch = 256 // one launch_fat node's tasks

var (
	passiveSpec = Spec{Exe: "app", Passive: true}
	daemonBase  = map[string]string{"LMON_FE_ADDR": "fe0:7000", "LMON_SHARED_KEY": "0123456789abcdef"}
)

// daemonSpec is shaped like an RM daemon's spawn of a tool daemon: an entry
// point, arguments, a per-process environment over a shared base.
func daemonSpec(main ProcMain) Spec {
	return Spec{
		Exe: "be", Main: main, Resident: true,
		Args:    []string{"be", "--verbose"},
		Env:     map[string]string{"LMON_RANK": "7"},
		EnvBase: daemonBase,
	}
}

// spawnCost spawns batch processes of spec on a fresh node from inside a
// simulated goroutine, passing each to use unless it is nil, and returns
// the objects and bytes that took, the table's growth included.
func spawnCost(t testing.TB, batch int, spec Spec, use func(*Proc)) (objs, bytes uint64) {
	sim := vtime.New()
	c, err := New(sim, Options{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim.Go("spawner", func() {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < batch; i++ {
			p, err := c.Node(0).SpawnSystemProc(spec)
			if err != nil {
				t.Error(err)
				return
			}
			if use != nil {
				use(p)
			}
		}
		runtime.ReadMemStats(&m1)
		objs, bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	})
	sim.Run()
	return objs, bytes
}

// TestSpawnAllocPerProcess is the allocation guard of a simulated process:
// a passive MPI task is one 64 B object plus its table slot, a daemon's
// cold part rides in its Proc's allocation, and a resident one with only an
// entry point makes its cold part on first use.
func TestSpawnAllocPerProcess(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the test's behalf")
	}
	if size := unsafe.Sizeof(Proc{}); size > 64 {
		t.Errorf("Proc is %d B, want at most 64 (one size class)", size)
	}
	// A daemon's process with its cold part is one 176 B object.
	if size := unsafe.Sizeof(procCold{}); size > 112 {
		t.Errorf("procCold is %d B, want at most 112 (Proc and it in the 176 B size class)", size)
	}
	// The table doubles five times on the way from its presized 8 slots
	// to 256; everything else is one object a task.
	const doublings = 5
	objs, bytes := spawnCost(t, spawnBatch, passiveSpec, nil)
	t.Logf("passive: %d objects, %.1f B a task", objs, float64(bytes)/spawnBatch)
	if objs > spawnBatch+doublings {
		t.Errorf("%d passive spawns took %d objects, want at most %d", spawnBatch, objs, spawnBatch+doublings)
	}
	if bytes > 96*spawnBatch {
		t.Errorf("%d passive spawns took %.1f B a task, want at most 96", spawnBatch, float64(bytes)/spawnBatch)
	}

	// A process that runs code gets its cold part at spawn, in its Proc's
	// allocation, so neither its spawn nor its first use of the cold part
	// (SetSymbol here; a front end's mux reaper Waits) may cost an object
	// more than with the cold fields inline in Proc and the table a
	// map[int]*Proc: inlineObjs, measured so (1 018.2 B a daemon). Held,
	// so the count is the spawn's own: a started goroutine may reuse one
	// that ended.
	const inlineObjs = 1550
	held := daemonSpec(func(*Proc) {})
	held.Hold = true
	objs, bytes = spawnCost(t, spawnBatch, held, func(p *Proc) {
		p.SetSymbol("MPIR_being_debugged", Symbol{Value: 1, Size: 4})
	})
	t.Logf("daemon: %d objects, %.1f B a daemon", objs, float64(bytes)/spawnBatch)
	if objs > inlineObjs {
		t.Errorf("%d daemon spawns took %d objects, want at most %d", spawnBatch, objs, inlineObjs)
	}
	spawnCost(t, 1, Spec{Exe: "fe", Main: func(*Proc) {}}, func(p *Proc) {
		if p.cold == nil {
			t.Error("a process spawned with only an entry point has no cold part")
		}
	})
	// A resident one is an RM node daemon, on every node for the whole run,
	// that may never use its cold part: it is made on first use.
	spawnCost(t, 1, Spec{Exe: "slurmd", Main: func(*Proc) {}, Resident: true}, func(p *Proc) {
		if p.cold != nil {
			t.Error("a resident process spawned with only an entry point has a cold part at spawn")
		}
		p.AdoptConn(nopSever{})
		if p.cold == nil || len(p.cold.conns) != 1 {
			t.Error("a resident process's first AdoptConn did not make its cold part")
		}
	})
}

// nopSever is something a process can adopt whose severing does nothing.
type nopSever struct{}

func (nopSever) Sever() {}

// BenchmarkSpawnPassive spawns a node's worth of passive tasks a
// iteration on a fresh node: B/proc is what one MPI task costs, its
// share of the table's growth included.
func BenchmarkSpawnPassive(b *testing.B) { benchmarkSpawn(b, passiveSpec) }

// BenchmarkSpawnDaemon is BenchmarkSpawnPassive for daemon-shaped spawns;
// each starts its entry point's goroutine, and the simulation runs them out
// untimed.
func BenchmarkSpawnDaemon(b *testing.B) { benchmarkSpawn(b, daemonSpec(func(*Proc) {})) }

func benchmarkSpawn(b *testing.B, spec Spec) {
	b.ReportAllocs()
	var bytes uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim := vtime.New()
		c, err := New(sim, Options{Nodes: 1})
		if err != nil {
			b.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		for j := 0; j < spawnBatch; j++ {
			if _, err := c.Node(0).SpawnSystemProc(spec); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		bytes += m1.TotalAlloc - m0.TotalAlloc
		sim.Run()
		b.StartTimer()
	}
	b.ReportMetric(float64(bytes)/float64(b.N)/spawnBatch, "B/proc")
}
