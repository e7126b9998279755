package core

import (
	"runtime"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/health"
	"launchmon/internal/rm"
)

// TestEndedSessionsLeaveNoGoroutines pins the per-session goroutine
// footprint: N sequential sessions, each running a collective round trip
// and ended by Kill, must leave Sim.Live() where the first one left it —
// an ended session keeps no event dispatcher, watcher, link demux or RM
// job reaper behind. (What the first session adds for good is per FE
// process, not per session: the transport mux and its reaper.)
func TestEndedSessionsLeaveNoGoroutines(t *testing.T) {
	for _, attach := range []bool{false, true} {
		name := "launch"
		if attach {
			name = "attach"
		}
		t.Run(name, func(t *testing.T) {
			sim, cl, mgr := rig(t, 16) // the RM never frees an allocation: 5 jobs x 3 nodes
			cl.Register("leak_be", func(p *cluster.Proc) {
				be, err := BEInit(p)
				if err != nil {
					t.Error(err)
					return
				}
				data, err := be.Collective().Broadcast()
				if err != nil {
					return // killed under us
				}
				if be.Collective().Gather(data) != nil {
					return
				}
				be.Finalize()
			})
			runFE(t, sim, cl, func(p *cluster.Proc) {
				var live []int
				for i := 0; i < 5; i++ {
					opts := Options{
						Job:        rm.JobSpec{Exe: "app", Nodes: 3, TasksPerNode: 2},
						Daemon:     rm.DaemonSpec{Exe: "leak_be"},
						ICCLFanout: 2,
						Health:     HealthOptions{Period: 100 * time.Millisecond},
					}
					start := LaunchAndSpawn
					if attach {
						j, err := mgr.StartJob(opts.Job)
						if err != nil {
							t.Error(err)
							return
						}
						p.Sim().Sleep(2 * time.Second) // job reaches steady state
						opts.JobID = j.ID()
						start = AttachAndSpawn
					}
					s, err := start(p, opts)
					if err != nil {
						t.Error(err)
						return
					}
					if err := s.Broadcast([]byte("ping")); err != nil {
						t.Error(err)
					}
					if _, err := s.Gather(); err != nil {
						t.Error(err)
					}
					if err := s.Kill(); err != nil {
						t.Error(err)
					}
					p.Sim().Sleep(5 * time.Second) // let the teardown settle
					live = append(live, sim.Live())

					// The dispatcher is gone; a late registration replays the
					// whole history on the caller.
					var kinds []health.EventKind
					s.RegisterStatusCB(func(ev health.Event) { kinds = append(kinds, ev.Kind) })
					if n := len(kinds); n < 2 || kinds[0] != health.EvDaemonsSpawned || kinds[n-1] != health.EvSessionTornDown {
						t.Errorf("session %d: late registration replayed %v", i, kinds)
					}
				}
				for i, n := range live {
					if n != live[0] {
						t.Errorf("Live() after session %d = %d, want %d (after each: %v)", i, n, live[0], live)
						break
					}
				}
			})
		})
	}
}

// TestEndedSessionsRetainBoundedHeap is the heap-side twin of the goroutine
// pin above: a launched-and-killed session (16 nodes x 8 tasks, fanout 4,
// plus 2 middleware daemons) leaves at most 20 KB reachable once it is over.
// A killed job leaves the RM's registry with its table and interned daemon
// environment, and no queue keeps what it has already delivered (popped
// vtime.Chan slots are cleared) — before both, a session retained 39 KB.
// What remains is first use of freshly allocated nodes (per-node process
// tables; the RM never reuses an allocation), so it is a per-session cost
// only because every session here gets new nodes.
func TestEndedSessionsRetainBoundedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector retains memory on the test's behalf")
	}
	const sessions, perSession, bound = 32, 16 + 2, 20 << 10
	sim, cl, _ := rig(t, (1+sessions)*perSession)
	cl.Register("heap_be", func(p *cluster.Proc) {
		if be, err := BEInit(p); err == nil {
			be.Finalize()
		}
	})
	cl.Register("heap_mw", func(p *cluster.Proc) {
		if mw, err := MWInit(p); err == nil {
			mw.Finalize()
		}
	})
	session := func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:        rm.JobSpec{Exe: "app", Nodes: 16, TasksPerNode: 8},
			Daemon:     rm.DaemonSpec{Exe: "heap_be"},
			ICCLFanout: 4,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := s.LaunchMW(MWOptions{Nodes: 2, Daemon: rm.DaemonSpec{Exe: "heap_mw"}, ICCLFanout: 4}); err != nil {
			t.Error(err)
		}
		if err := s.Kill(); err != nil {
			t.Error(err)
		}
		p.Sim().Sleep(5 * time.Second) // let the teardown settle
	}
	runFE(t, sim, cl, func(p *cluster.Proc) {
		session(p) // warm-up: what the first session adds for good is per FE process
		before := liveHeap()
		for i := 0; i < sessions; i++ {
			session(p)
		}
		after := liveHeap()
		per := (int64(after) - int64(before)) / sessions
		t.Logf("%d B retained per ended session", per)
		if per > bound {
			t.Errorf("an ended session retains %d B, want at most %d", per, bound)
		}
	})
}

// liveHeap is the heap reachable now.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC() // a second cycle frees what the first one's finalizers released
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestExitedFabricRetainsBoundedHeap bounds what a session that stays up
// keeps of a daemon tree that has exited under it: K daemons demultiplex
// their links (a plane AllGather) and finalize at once, and once every one
// has exited the heap reachable per daemon stays under 2 KiB (≈ 1.6 KiB).
// The session keeps its master connection, and through the connection's
// peer the master's FE-connection handler, until it ends. That handler's
// sorter drops the root plane when the connection ends; kept, the plane's
// links hold the whole exited tree through their peers (≈ 3.5 KiB a
// daemon).
func TestExitedFabricRetainsBoundedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector retains memory on the test's behalf")
	}
	const k, fanout, bound = 512, 8, 2 << 10
	sim, cl, _ := rig(t, k)
	cl.Register("exit_be", func(p *cluster.Proc) {
		if be, err := BEInit(p); err == nil {
			if _, err := be.Collective().AllGather(nil); err == nil {
				be.Finalize()
			}
		}
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		before := liveHeap()
		s, err := LaunchAndSpawn(p, Options{
			Job:        rm.JobSpec{Exe: "app", Nodes: k, TasksPerNode: 1},
			Daemon:     rm.DaemonSpec{Exe: "exit_be"},
			ICCLFanout: fanout,
		})
		if err != nil {
			t.Error(err)
			return
		}
		p.Sim().Sleep(5 * time.Second) // every daemon exits
		per := (int64(liveHeap()) - int64(before)) / k
		t.Logf("%d B reachable per exited daemon", per)
		if per > bound {
			t.Errorf("a live session keeps %d B per exited daemon, want at most %d", per, bound)
		}
		s.Kill()
	})
}

// TestDaemonHeapFootprint holds what a parked daemon keeps, per daemon, on
// the shape of the benchmark's launch_wide: a lean K=1024, fan-out 64
// launch whose daemons wait in a plane broadcast, its heap read after a
// forced collection on each side of LaunchAndSpawn. A warm-up launch of the
// same shape goes first, so what the process keeps for good (the goroutine
// descriptors its ended daemons leave for reuse, the transport mux) is not
// counted, whichever tests ran before. The figures are the ones this layout
// measures (DESIGN.md "Simulator cost model"); both must stay within 3 %:
// above, something per daemon grew; below, record the saving here.
func TestDaemonHeapFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the test's behalf")
	}
	const k, fanout = 1024, 64
	const wantBytes, wantObjects = 2340.0, 28.2 // per daemon
	sim, cl, _ := rig(t, 2*k)
	cl.Register("park_be", func(p *cluster.Proc) {
		if be, err := BEInit(p); err == nil {
			be.Collective().Broadcast()
			be.Finalize()
		}
	})
	launch := func(p *cluster.Proc) *Session {
		s, err := LaunchAndSpawn(p, Options{
			Job:        rm.JobSpec{Exe: "app", Nodes: k, TasksPerNode: 1},
			Daemon:     rm.DaemonSpec{Exe: "park_be"},
			ICCLFanout: fanout,
		})
		if err != nil {
			t.Error(err)
		}
		return s
	}
	runFE(t, sim, cl, func(p *cluster.Proc) {
		if s := launch(p); s != nil {
			s.Kill()
		}
		p.Sim().Sleep(5 * time.Second) // let the teardown settle
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := launch(p)
		if s == nil {
			return
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		bytes := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / k
		objects := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / k
		t.Logf("%.1f B and %.2f objects live per parked daemon", bytes, objects)
		for _, c := range []struct {
			what      string
			got, want float64
		}{{"bytes", bytes, wantBytes}, {"objects", objects, wantObjects}} {
			if c.got > 1.03*c.want || c.got < 0.97*c.want {
				t.Errorf("a parked daemon keeps %.2f %s, want within 3 %% of %.2f", c.got, c.what, c.want)
			}
		}
		s.Kill()
	})
}
