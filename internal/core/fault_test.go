package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/health"
	"launchmon/internal/rm"
	"launchmon/internal/vtime"
)

// Fault-subsystem coverage: node and job loss mid-session must surface as
// status-callback events and end in a clean watchdog teardown. Run with
// -race; the simulation quiescing (sim.Run returning) is itself the
// no-leaked-timers assertion.

// registerResidentBE registers a daemon that joins the session and then
// stays resident (parked on a channel) until killed — the shape of a real
// tool daemon serving a debug session.
func registerResidentBE(t *testing.T, cl *cluster.Cluster, exe string) {
	t.Helper()
	cl.Register(exe, func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			return
		}
		_ = be
		vtime.NewChan[int](p.Sim()).Recv() // resident until killed
	})
}

// collectEvents registers a status callback that fans events out to
// per-kind channels.
func collectEvents(s *Session, sim *vtime.Sim) map[health.EventKind]*vtime.Chan[health.Event] {
	chans := map[health.EventKind]*vtime.Chan[health.Event]{
		health.EvDaemonsSpawned:  vtime.NewChan[health.Event](sim),
		health.EvJobExited:       vtime.NewChan[health.Event](sim),
		health.EvDaemonExited:    vtime.NewChan[health.Event](sim),
		health.EvSessionTornDown: vtime.NewChan[health.Event](sim),
	}
	s.RegisterStatusCB(func(ev health.Event) {
		if ch, ok := chans[ev.Kind]; ok {
			ch.Send(ev)
		}
	})
	return chans
}

func TestNodeKillMidSessionFiresDaemonExitedAndTearsDown(t *testing.T) {
	const nodes = 8
	period := 200 * time.Millisecond
	const miss = 3
	sim, cl, _ := rig(t, nodes)
	registerResidentBE(t, cl, "hb_be")

	var detectLatency time.Duration
	var exited, torn health.Event
	victimHost := ""
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: 2},
			Daemon: rm.DaemonSpec{Exe: "hb_be"},
			Health: HealthOptions{Period: period, Miss: miss},
		})
		if err != nil {
			t.Error(err)
			return
		}
		chans := collectEvents(s, sim)
		if _, ok := chans[health.EvDaemonsSpawned].Recv(); !ok {
			t.Error("no DaemonsSpawned event")
			return
		}
		p.Sim().Sleep(1 * time.Second) // session steady state

		// Kill the node hosting daemon rank 5.
		const victim = 5
		for _, d := range s.Daemons() {
			if d.Rank == victim {
				victimHost = d.Host
			}
		}
		if victimHost == "" {
			t.Errorf("no daemon with rank %d", victim)
			return
		}
		killAt := p.Sim().Now()
		if !cl.KillNodeByName(victimHost) {
			t.Errorf("KillNodeByName(%q) found nothing", victimHost)
			return
		}

		ev, ok := chans[health.EvDaemonExited].Recv()
		if !ok {
			t.Error("no DaemonExited event")
			return
		}
		exited = ev
		detectLatency = p.Sim().Now() - killAt

		ev, ok = chans[health.EvSessionTornDown].Recv()
		if !ok {
			t.Error("no SessionTornDown event")
			return
		}
		torn = ev

		// The session is over: further operations are clean errors, and
		// receives report why the watchdog tore the session down.
		if err := s.Kill(); err != ErrSessionClosed {
			t.Errorf("Kill after watchdog teardown: %v", err)
		}
		if _, err := s.RecvFromBE(); !errors.Is(err, ErrSessionClosed) ||
			!strings.Contains(err.Error(), "lost") {
			t.Errorf("RecvFromBE after teardown: %v", err)
		}

		// Clean teardown: every surviving node is back to just its slurmd
		// (tasks and resident daemons reaped), and the victim is empty.
		for i := 0; i < nodes; i++ {
			n := cl.Node(i)
			want := 1
			if n.Name() == victimHost {
				want = 0
			}
			if got := n.NumProcs(); got != want {
				t.Errorf("node %s has %d procs after teardown, want %d", n.Name(), got, want)
			}
		}
	})

	if exited.Rank != 5 {
		t.Errorf("DaemonExited rank = %d, want 5", exited.Rank)
	}
	deadline := time.Duration(miss+1) * period
	if detectLatency > deadline {
		t.Errorf("detection took %v, miss-threshold deadline is %v", detectLatency, deadline)
	}
	if torn.Kind != health.EvSessionTornDown {
		t.Fatalf("unexpected teardown event %+v", torn)
	}
}

func TestJobExitFiresCallbackAndTearsDown(t *testing.T) {
	sim, cl, mgr := rig(t, 4)
	registerResidentBE(t, cl, "hb_be")

	var jobExited, torn bool
	var code int
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "hb_be"},
			Health: HealthOptions{Period: 200 * time.Millisecond},
		})
		if err != nil {
			t.Error(err)
			return
		}
		chans := collectEvents(s, sim)
		p.Sim().Sleep(500 * time.Millisecond)

		// Fault-inject the launcher itself: the engine's job watch must
		// report the exit and the watchdog must reap the orphaned tasks
		// and daemons.
		j, ok := mgr.FindJob(1)
		if !ok {
			t.Error("job 1 not found")
			return
		}
		j.LauncherProc().Kill()

		ev, ok := chans[health.EvJobExited].Recv()
		if !ok {
			t.Error("no JobExited event")
			return
		}
		jobExited, code = true, ev.Code
		if _, ok := chans[health.EvSessionTornDown].Recv(); ok {
			torn = true
		}
		// Orphan cleanup: only slurmd left per node.
		for i := 0; i < 4; i++ {
			if got := cl.Node(i).NumProcs(); got != 1 {
				t.Errorf("node%d has %d procs after job-exit teardown", i, got)
			}
		}
	})
	if !jobExited {
		t.Fatal("JobExited never fired")
	}
	if code != 137 {
		t.Errorf("JobExited code = %d, want 137", code)
	}
	if !torn {
		t.Fatal("SessionTornDown never fired")
	}
}

func TestCallbackReplayAfterTeardown(t *testing.T) {
	sim, cl, _ := rig(t, 2)
	cl.Register("ok_be", func(p *cluster.Proc) {
		if be, err := BEInit(p); err == nil {
			be.Finalize()
		}
	})
	var kinds []health.EventKind
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: 2, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "ok_be"},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Kill(); err != nil {
			t.Error(err)
			return
		}
		// Registered after the fact: the full history replays in order.
		done := vtime.NewChan[struct{}](sim)
		s.RegisterStatusCB(func(ev health.Event) {
			kinds = append(kinds, ev.Kind)
			if ev.Kind == health.EvSessionTornDown {
				done.Send(struct{}{})
			}
		})
		done.Recv()
	})
	want := []health.EventKind{health.EvDaemonsSpawned, health.EvSessionTornDown}
	if len(kinds) != len(want) {
		t.Fatalf("replayed kinds %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("replayed kinds %v, want %v", kinds, want)
		}
	}
}

func TestDetachKillOnNeverEstablishedSession(t *testing.T) {
	// Regression: Detach/Kill on a session whose launch never completed
	// must be idempotent no-ops (previously they raced the half-initialized
	// connection set and dereferenced nil conns).
	s := &Session{ID: 999}
	for i := 0; i < 2; i++ {
		if err := s.Detach(); err != ErrSessionClosed {
			t.Errorf("Detach on never-established session: %v", err)
		}
		if err := s.Kill(); err != ErrSessionClosed {
			t.Errorf("Kill on never-established session: %v", err)
		}
	}
	// Callback registration on a dead-on-arrival session is a no-op, not
	// a panic.
	s.RegisterStatusCB(func(health.Event) {})
}

func TestDetachKillRaceAgainstFailedLaunch(t *testing.T) {
	// A launch that fails (crashing daemons) must leave a session object —
	// if one ever escaped — inert: concurrent Detach/Kill during and after
	// the failure window are no-ops.
	sim, cl, _ := rig(t, 4)
	cl.Register("crash_be", func(p *cluster.Proc) {})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		_, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "crash_be"},
		})
		if err == nil {
			t.Error("launch with crashing daemons succeeded")
		}
	})
}
