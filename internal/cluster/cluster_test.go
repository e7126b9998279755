package cluster

import (
	"errors"
	"reflect"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

func newCluster(t *testing.T, sim *vtime.Sim, nodes int, opts Options) *Cluster {
	t.Helper()
	opts.Nodes = nodes
	c, err := New(sim, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTopology(t *testing.T) {
	sim := vtime.New()
	c := newCluster(t, sim, 4, Options{})
	if c.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
	if c.FrontEnd().Name() != "fe0" {
		t.Fatalf("front end name = %q", c.FrontEnd().Name())
	}
	if c.Node(2).Name() != "node2" {
		t.Fatalf("node2 name = %q", c.Node(2).Name())
	}
	if _, ok := c.NodeByName("node3"); !ok {
		t.Fatal("NodeByName(node3) failed")
	}
	if _, ok := c.NodeByName("fe0"); !ok {
		t.Fatal("NodeByName(fe0) failed")
	}
	if _, ok := c.NodeByName("nowhere"); ok {
		t.Fatal("NodeByName(nowhere) succeeded")
	}
}

func TestSpawnRunsMain(t *testing.T) {
	sim := vtime.New()
	c := newCluster(t, sim, 1, Options{})
	ran := false
	sim.Go("boot", func() {
		p, err := c.Node(0).SpawnProc(Spec{Main: func(p *Proc) {
			ran = true
			if p.Env("KEY") != "VAL" {
				t.Error("env not propagated")
			}
			if len(p.args()) != 2 || p.args()[1] != "b" {
				t.Error("args not propagated")
			}
		}, Args: []string{"a", "b"}, Env: map[string]string{"KEY": "VAL"}})
		if err != nil {
			t.Error(err)
			return
		}
		if code, ok := p.Wait(); !ok || code != 0 {
			t.Errorf("Wait = (%d,%v)", code, ok)
		}
	})
	sim.Run()
	if !ran {
		t.Fatal("main did not run")
	}
}

func TestForkCostSerializes(t *testing.T) {
	sim := vtime.New()
	fork := ForkCost
	c := newCluster(t, sim, 1, Options{})
	var done time.Duration
	sim.Go("boot", func() {
		// Two concurrent spawners on the same node must serialize.
		wg := vtime.NewWaitGroup(sim)
		wg.Add(2)
		for i := 0; i < 2; i++ {
			sim.Go("spawner", func() {
				if _, err := c.Node(0).SpawnProc(Spec{}); err != nil {
					t.Error(err)
				}
				wg.Done()
			})
		}
		wg.Wait()
		done = sim.Now()
	})
	sim.Run()
	if done != 2*fork {
		t.Fatalf("two concurrent forks completed at %v, want %v", done, 2*fork)
	}
}

func TestSpawnByRegisteredExe(t *testing.T) {
	sim := vtime.New()
	c := newCluster(t, sim, 1, Options{})
	ran := false
	c.Register("daemon", func(p *Proc) { ran = true })
	sim.Go("boot", func() {
		p, err := c.Node(0).SpawnProc(Spec{Exe: "daemon"})
		if err != nil {
			t.Error(err)
			return
		}
		p.Wait()
	})
	sim.Run()
	if !ran {
		t.Fatal("registered exe did not run")
	}
}

func TestSpawnUnknownExe(t *testing.T) {
	sim := vtime.New()
	c := newCluster(t, sim, 1, Options{})
	var err error
	sim.Go("boot", func() { _, err = c.Node(0).SpawnProc(Spec{Exe: "missing"}) })
	sim.Run()
	if err == nil {
		t.Fatal("spawn of unknown exe succeeded")
	}
}

func TestProcLimit(t *testing.T) {
	sim := vtime.New()
	c := newCluster(t, sim, 1, Options{MaxProcs: 3})
	var errAt int = -1
	sim.Go("boot", func() {
		for i := 0; i < 5; i++ {
			if _, err := c.Node(0).SpawnProc(Spec{}); err != nil {
				if !errors.Is(err, ErrProcLimit) {
					t.Errorf("unexpected error: %v", err)
				}
				errAt = i
				return
			}
		}
	})
	sim.Run()
	if errAt != 3 {
		t.Fatalf("proc limit hit at spawn %d, want 3", errAt)
	}
}

func TestExitRemovesFromTable(t *testing.T) {
	sim := vtime.New()
	c := newCluster(t, sim, 1, Options{})
	sim.Go("boot", func() {
		p, err := c.Node(0).SpawnProc(Spec{})
		if err != nil {
			t.Error(err)
			return
		}
		if c.Node(0).NumProcs() != 1 {
			t.Errorf("NumProcs = %d before exit", c.Node(0).NumProcs())
		}
		p.exit(3, false)
		if c.Node(0).NumProcs() != 0 {
			t.Errorf("NumProcs = %d after exit", c.Node(0).NumProcs())
		}
		if code, ok := p.Wait(); !ok || code != 3 {
			t.Errorf("Wait = (%d,%v), want (3,true)", code, ok)
		}
		// Exit is idempotent.
		p.exit(9, false)
		if p.State() != StateExited {
			t.Error("state not exited")
		}
	})
	sim.Run()
}

func TestTracerBreakpointFlow(t *testing.T) {
	sim := vtime.New()
	c := newCluster(t, sim, 1, Options{})
	var seen []string
	sim.Go("boot", func() {
		p, err := c.Node(0).SpawnProc(Spec{Main: func(p *Proc) {
			p.Compute(time.Millisecond)
			p.DebugEvent("MPIR_Breakpoint")
			p.Compute(time.Millisecond)
		}})
		if err != nil {
			t.Error(err)
			return
		}
		tr, err := p.Attach()
		if err != nil {
			t.Error(err)
			return
		}
		for {
			ev, ok := tr.Events().Recv()
			if !ok {
				break
			}
			switch ev.Type {
			case EventStop:
				seen = append(seen, "stop:"+ev.Reason)
				if p.State() != stateStopped {
					t.Error("tracee not stopped at stop event")
				}
				if err := tr.Continue(); err != nil {
					t.Error(err)
				}
			case EventExit:
				seen = append(seen, "exit")
			}
		}
	})
	sim.Run()
	if len(seen) != 2 || seen[0] != "stop:MPIR_Breakpoint" || seen[1] != "exit" {
		t.Fatalf("event sequence = %v", seen)
	}
}

func TestDebugEventWithoutTracerProceeds(t *testing.T) {
	sim := vtime.New()
	c := newCluster(t, sim, 1, Options{})
	finished := false
	sim.Go("boot", func() {
		p, _ := c.Node(0).SpawnProc(Spec{Main: func(p *Proc) {
			p.DebugEvent("MPIR_Breakpoint")
			finished = true
		}})
		p.Wait()
	})
	sim.Run()
	if !finished {
		t.Fatal("untraced process blocked at DebugEvent")
	}
}

func TestDoubleAttachFails(t *testing.T) {
	sim := vtime.New()
	c := newCluster(t, sim, 1, Options{})
	sim.Go("boot", func() {
		p, _ := c.Node(0).SpawnProc(Spec{})
		if _, err := p.Attach(); err != nil {
			t.Error(err)
		}
		if _, err := p.Attach(); !errors.Is(err, errAlreadyTraced) {
			t.Errorf("second attach: %v", err)
		}
	})
	sim.Run()
}

func TestReadSymbolCostScalesWithSize(t *testing.T) {
	sim := vtime.New()
	base := symbolReadBase
	size := int(symbolReadBandwidth / 1000) // a millisecond's worth
	c := newCluster(t, sim, 1, Options{})
	var smallCost, bigCost time.Duration
	sim.Go("boot", func() {
		p, _ := c.Node(0).SpawnProc(Spec{})
		p.SetSymbol("small", Symbol{Value: 1, Size: size})
		p.SetSymbol("big", Symbol{Value: 2, Size: 100 * size})
		tr, _ := p.Attach()
		t0 := sim.Now()
		if _, err := tr.ReadSymbol("small"); err != nil {
			t.Error(err)
		}
		smallCost = sim.Now() - t0
		t0 = sim.Now()
		if _, err := tr.ReadSymbol("big"); err != nil {
			t.Error(err)
		}
		bigCost = sim.Now() - t0
		if _, err := tr.ReadSymbol("absent"); err == nil {
			t.Error("read of absent symbol succeeded")
		}
	})
	sim.Run()
	if want := base + time.Millisecond; smallCost != want {
		t.Errorf("small read cost %v, want %v", smallCost, want)
	}
	if want := base + 100*time.Millisecond; bigCost != want {
		t.Errorf("big read cost %v, want %v", bigCost, want)
	}
}

func TestDetachResumesStoppedTracee(t *testing.T) {
	sim := vtime.New()
	c := newCluster(t, sim, 1, Options{})
	finished := false
	sim.Go("boot", func() {
		p, _ := c.Node(0).SpawnProc(Spec{Main: func(p *Proc) {
			p.DebugEvent("stop1")
			finished = true
		}})
		tr, _ := p.Attach()
		ev, ok := tr.Events().Recv()
		if !ok || ev.Type != EventStop {
			t.Error("no stop event")
			return
		}
		tr.Detach()
		p.Wait()
	})
	sim.Run()
	if !finished {
		t.Fatal("tracee stayed stopped after detach")
	}
}

func TestKill(t *testing.T) {
	sim := vtime.New()
	c := newCluster(t, sim, 1, Options{})
	sim.Go("boot", func() {
		p, _ := c.Node(0).SpawnProc(Spec{})
		p.Kill()
		if code, ok := p.Wait(); !ok || code != 137 {
			t.Errorf("Wait after kill = (%d,%v)", code, ok)
		}
	})
	sim.Run()
}

func TestSnapshotDeterministicAndCharged(t *testing.T) {
	sim := vtime.New()
	c := newCluster(t, sim, 1, Options{})
	sim.Go("boot", func() {
		p, _ := c.Node(0).SpawnProc(Spec{})
		t0 := sim.Now()
		s1 := p.Snapshot()
		if cost := sim.Now() - t0; cost != snapshotReadCost {
			t.Errorf("snapshot cost %v, want %v", cost, snapshotReadCost)
		}
		s2 := p.Snapshot()
		if s1.Pid != s2.Pid || s1.VmHWMKB != s2.VmHWMKB || s1.Threads != s2.Threads {
			t.Errorf("snapshots differ on static fields: %+v vs %+v", s1, s2)
		}
		if s1.State != "R" {
			t.Errorf("state %q, want R", s1.State)
		}
	})
	sim.Run()
}

// Property: pids are unique per node across arbitrary spawn/exit patterns,
// and the pid-ordered table with its tombstones answers Proc, NumProcs and
// FindProcByExe as a map of the live processes would, for live and exited
// pids alike, after every operation. An op below 85 exits the live process
// at position op % len(live), so exits hit every position, not only the
// oldest; any other spawns one labelled by its low bit.
func TestPropertyPidUniqueness(t *testing.T) {
	exes := [2]string{"even", "odd"}
	f := func(ops []uint8) bool {
		if len(ops) > 120 {
			ops = ops[:120]
		}
		sim := vtime.New()
		c, err := New(sim, Options{Nodes: 1})
		if err != nil {
			return false
		}
		n := c.Node(0)
		okRes := true
		check := func(i int, format string, args ...any) {
			t.Helper()
			t.Errorf("op %d of %v: "+format, append([]any{i, ops}, args...)...)
			okRes = false
		}
		sim.Go("boot", func() {
			live := map[int]*Proc{}
			var spawned []*Proc // every process, in spawn order
			var order []int     // live pids in spawn order
			for i, op := range ops {
				if op < 85 && len(order) > 0 {
					j := int(op) % len(order)
					live[order[j]].exit(0, false)
					delete(live, order[j])
					order = append(order[:j], order[j+1:]...)
				} else {
					p, err := n.SpawnProc(Spec{Exe: exes[op&1], Passive: true})
					if err != nil {
						check(i, "spawn: %v", err)
						return
					}
					if _, dup := live[p.Pid()]; dup || len(spawned) > 0 && p.Pid() <= spawned[len(spawned)-1].Pid() {
						check(i, "pid %d reused or out of order", p.Pid())
						return
					}
					live[p.Pid()] = p
					spawned = append(spawned, p)
					order = append(order, p.Pid())
				}
				if got := n.NumProcs(); got != len(live) {
					check(i, "NumProcs = %d, want %d", got, len(live))
				}
				for _, p := range spawned {
					got, ok := n.Proc(p.Pid())
					if want, wantOK := live[p.Pid()]; got != want || ok != wantOK {
						check(i, "Proc(%d) = %p, %v, want %p, %v", p.Pid(), got, ok, want, wantOK)
					}
				}
				if _, ok := n.Proc(0); ok {
					check(i, "Proc(0) found a process")
				}
				for _, exe := range exes {
					var want *Proc
					for _, p := range spawned {
						if live[p.Pid()] == p && p.Exe() == exe {
							want = p
							break
						}
					}
					if got := n.FindProcByExe(exe); got != want {
						check(i, "FindProcByExe(%q) = %p, want %p", exe, got, want)
					}
				}
			}
		})
		sim.Run()
		return okRes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestLazyColdPartIsRaceFree: a passive task gets its cold part on first
// use, from a goroutine that attaches to it, publishes a symbol and waits on
// it, while another reads its environment, arguments, snapshot and state
// with no ordering between the two. Run it under -race.
func TestLazyColdPartIsRaceFree(t *testing.T) {
	for round := 0; round < 8; round++ {
		sim := vtime.New()
		c := newCluster(t, sim, 1, Options{})
		p, err := c.Node(0).SpawnSystemProc(Spec{Exe: "app", Passive: true})
		if err != nil {
			t.Fatal(err)
		}
		sim.Go("tracer", func() {
			if _, err := p.Attach(); err != nil {
				t.Error(err)
			}
			p.SetSymbol("MPIR_being_debugged", Symbol{Value: 1, Size: 4})
			if code, ok := p.Wait(); !ok || code != 137 {
				t.Errorf("Wait = (%d,%v), want (137,true)", code, ok)
			}
		})
		sim.Go("reader", func() {
			for i := 0; i < 100; i++ {
				if p.Env("LMON_RANK") != "" || len(p.args()) != 0 || len(p.Environ()) != 0 {
					t.Error("a passive task has an environment or arguments")
				}
				if s := p.State(); s != stateRunning {
					t.Errorf("state %v, want running", s)
				}
			}
			if s := p.Snapshot(); s.Pid != p.Pid() || s.Exe != "app" {
				t.Errorf("snapshot %+v", s)
			}
			p.Kill()
		})
		sim.Run()
	}
}

// TestProcEnvOverlay: a process's own environment (Spec.Env) is kept as an
// environment block over the shared base (Spec.EnvBase). It shadows the
// base, a key in neither reads "", Environ merges the two layers, and the
// block is in key order — whatever order the spawner's map iterates in —
// with no entry that could not end where the block says it does.
func TestProcEnvOverlay(t *testing.T) {
	sim := vtime.New()
	c := newCluster(t, sim, 1, Options{})
	base := map[string]string{"LMON_FE_ADDR": "fe0:7000", "LMON_NODEID": "base", "PATH": "/bin"}
	own := map[string]string{"LMON_NODEID": "12", "B": "x=y", "A": "", "Z": "last"}
	p, err := c.Node(0).SpawnSystemProc(Spec{Exe: "be", Passive: true, Env: own, EnvBase: base})
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{
		"LMON_NODEID":  "12", // the overlay shadows the base
		"B":            "x=y",
		"A":            "",
		"PATH":         "/bin", // the base shows through
		"LMON_FE_ADDR": "fe0:7000",
		"MISSING":      "",
	} {
		if got := p.Env(key); got != want {
			t.Errorf("Env(%q) = %q, want %q", key, got, want)
		}
	}
	want := map[string]string{"LMON_FE_ADDR": "fe0:7000", "LMON_NODEID": "12", "PATH": "/bin", "A": "", "B": "x=y", "Z": "last"}
	if got := p.Environ(); !reflect.DeepEqual(got, want) {
		t.Errorf("Environ() = %v, want %v", got, want)
	}
	if got, want := p.cold.env, "A=\x00B=x=y\x00LMON_NODEID=12\x00Z=last\x00"; got != want {
		t.Errorf("the overlay is stored as %q, want %q (key order)", got, want)
	}
	for _, bad := range []map[string]string{{"K=V": "1"}, {"K\x00": "1"}, {"K": "a\x00b"}} {
		if _, err := c.Node(0).SpawnSystemProc(Spec{Exe: "be", Passive: true, Env: bad}); err == nil {
			t.Errorf("spawn with environment %q succeeded, want refused", bad)
		}
	}
}

func TestExitSeversAdoptedConns(t *testing.T) {
	sim := vtime.New()
	c := newCluster(t, sim, 2, Options{})
	sim.Go("boot", func() {
		ln, err := c.Node(0).Host().Listen(7000)
		if err != nil {
			t.Error(err)
			return
		}
		p, err := c.Node(1).SpawnProc(Spec{})
		if err != nil {
			t.Error(err)
			return
		}
		conn, err := c.Node(1).Host().Dial(ln.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		p.AdoptConn(conn)
		peer, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		// Killing the process — not its node — severs the adopted
		// connection: the peer's read surfaces ErrPeerDead, not EOF.
		p.Kill()
		if _, err := peer.RecvMessage(); !errors.Is(err, simnet.ErrPeerDead) {
			t.Errorf("peer read after proc kill: %v, want ErrPeerDead", err)
		}
		if code, ok := p.Wait(); !ok || code != 137 {
			t.Errorf("Wait = %d, %v after Kill", code, ok)
		}

		// Adopting into an already-exited process severs immediately.
		conn2, err := c.Node(1).Host().Dial(ln.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		peer2, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		p.AdoptConn(conn2)
		if _, err := peer2.RecvMessage(); !errors.Is(err, simnet.ErrPeerDead) {
			t.Errorf("peer read after adopt-into-dead: %v, want ErrPeerDead", err)
		}
	})
	sim.Run()
}

// TestNodeFailKillsInPidOrder: the processes of a failed node die lowest pid
// first, so the order their tracers (and through them the survivors) hear of
// it is the same in every run. (It was the process table's map order.)
func TestNodeFailKillsInPidOrder(t *testing.T) {
	run := func() []int {
		sim := vtime.New()
		c := newCluster(t, sim, 1, Options{})
		var exits []int
		sim.Go("boot", func() {
			for i := 0; i < 16; i++ {
				p, err := c.Node(0).SpawnProc(Spec{Passive: true})
				if err != nil {
					t.Error(err)
					return
				}
				tr, err := p.Attach()
				if err != nil {
					t.Error(err)
					return
				}
				tr.Events().Handle(func(ev TraceEvent, ok bool) {
					if ok && ev.Type == EventExit {
						exits = append(exits, p.Pid())
					}
				})
			}
			c.Node(0).Fail()
		})
		sim.Run()
		return exits
	}
	first := run()
	if len(first) != 16 || !sort.IntsAreSorted(first) {
		t.Fatalf("exit events arrived as pids %v, want all 16 ascending", first)
	}
	for i := 0; i < 50; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: exit events arrived as pids %v, first run %v", i, got, first)
		}
	}
}

// TestProcGoroutineName: a running process's goroutine is named
// node/exe[pid], formatted only when asked, in what the spawn observer sees
// and in the panic a crashing main raises out of Run.
func TestProcGoroutineName(t *testing.T) {
	sim := vtime.New()
	c := newCluster(t, sim, 1, Options{})
	var seen []string
	var p *Proc
	sim.Go("boot", func() {
		sim.SetSpawnObserver(func(name string) { seen = append(seen, name) })
		var err error
		if p, err = c.Node(0).SpawnProc(Spec{Exe: "crash", Main: func(*Proc) { panic("boom") }}); err != nil {
			t.Error(err)
		}
	})
	defer func() {
		r := recover()
		name := c.Node(0).Name() + "/crash[" + strconv.Itoa(p.Pid()) + "]"
		if len(seen) != 1 || seen[0] != name || r != `vtime goroutine "`+name+`" panicked: boom` {
			t.Errorf("the observer saw %q and Run raised %v; want [%s] and its panic", seen, r, name)
		}
	}()
	sim.Run()
}

// forkWatch is a fork's caller that holds the scheduler a few real
// milliseconds in Forked, then records whether the process's main had
// already run.
type forkWatch struct {
	ran, early atomic.Bool
	told       bool
}

func (w *forkWatch) Forked(p *Proc, err error) {
	w.told = err == nil && p != nil
	time.Sleep(5 * time.Millisecond)
	w.early.Store(w.ran.Load())
}

// TestForkTellsItsCallerBeforeMainRuns: an asynchronous fork reports the
// process to its caller before the process's goroutine starts (vtime's Go
// starts it once the fork's event has returned). A main started first runs
// beside the caller's Forked on the host, and the first event either
// schedules takes the next seq: the order would be the host's.
func TestForkTellsItsCallerBeforeMainRuns(t *testing.T) {
	sim := vtime.New()
	c := newCluster(t, sim, 1, Options{})
	w := &forkWatch{}
	f := &Fork{Spec: Spec{Exe: "d", Main: func(*Proc) { w.ran.Store(true) }}, To: w}
	sim.After(0, func() { c.Node(0).SpawnProcEvent(f) })
	sim.Run()
	switch {
	case !w.told || !w.ran.Load():
		t.Fatalf("Forked told of the process: %v; main ran: %v", w.told, w.ran.Load())
	case w.early.Load():
		t.Error("the process's main ran while its fork's Forked still ran")
	}
}
