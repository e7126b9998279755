package core

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/rm"
	"launchmon/internal/transport"
	"launchmon/internal/vtime"
)

// Concurrent-session coverage: one FE process drives many sessions in
// parallel goroutines over a single transport mux. Run with -race.

// launchConcurrent runs k LaunchAndSpawn sessions in parallel goroutines
// of one FE process and returns the sessions (indexed by goroutine).
func launchConcurrent(t *testing.T, p *cluster.Proc, k, nodesEach, tpn int) []*Session {
	t.Helper()
	sessions := make([]*Session, k)
	errs := make([]error, k)
	wg := vtime.NewWaitGroup(p.Sim())
	wg.Add(k)
	for i := 0; i < k; i++ {
		i := i
		p.Sim().Go(fmt.Sprintf("fe-session-%d", i), func() {
			defer wg.Done()
			sessions[i], errs[i] = LaunchAndSpawn(p, Options{
				Job:    rm.JobSpec{Exe: fmt.Sprintf("app%d", i), Nodes: nodesEach, TasksPerNode: tpn},
				Daemon: rm.DaemonSpec{Exe: "cc_be"},
				FEData: []byte(fmt.Sprintf("boot-%d", i)),
			})
		})
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}
	return sessions
}

func TestConcurrentSessionsOverOneMux(t *testing.T) {
	const k, nodesEach, tpn = 8, 2, 2
	sim, cl, _ := rig(t, k*nodesEach)
	cl.Register("cc_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			t.Errorf("BEInit on %s: %v", p.Node().Name(), err)
			return
		}
		be.Finalize()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		sessions := launchConcurrent(t, p, k, nodesEach, tpn)

		fe, err := newFrontEnd(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := fe.mux.Sessions(); got != k {
			t.Errorf("mux tracks %d sessions, want %d", got, k)
		}

		// Proctabs are complete, valid, and pairwise disjoint: every
		// session's job landed on its own nodes, and no session saw
		// another session's table through the shared mux.
		hostOwner := map[string]int{}
		idSeen := map[int]bool{}
		for i, s := range sessions {
			if s == nil {
				continue
			}
			if idSeen[s.ID] {
				t.Errorf("duplicate session id %d", s.ID)
			}
			idSeen[s.ID] = true
			tab := s.Proctab()
			if len(tab) != nodesEach*tpn {
				t.Errorf("session %d proctab has %d entries, want %d", i, len(tab), nodesEach*tpn)
			}
			if err := tab.Validate(); err != nil {
				t.Errorf("session %d proctab: %v", i, err)
			}
			for _, d := range tab {
				if d.Exe != fmt.Sprintf("app%d", i) {
					t.Errorf("session %d proctab contains foreign task %q", i, d.Exe)
				}
				if prev, ok := hostOwner[d.Host]; ok && prev != i {
					t.Errorf("host %s appears in sessions %d and %d", d.Host, prev, i)
				}
				hostOwner[d.Host] = i
			}
			if len(s.Daemons()) != nodesEach {
				t.Errorf("session %d reports %d daemons, want %d", i, len(s.Daemons()), nodesEach)
			}
		}

		// Per-session timelines: each session's critical-path chains are
		// complete and monotonic on its own clock, independent of how the
		// sessions interleaved.
		for i, s := range sessions {
			if s == nil {
				continue
			}
			assertLaunchChains(t, fmt.Sprintf("session %d", i), s.Timeline)
		}
	})
}

func TestConcurrentSessionsIndependentTeardown(t *testing.T) {
	const k, nodesEach, tpn = 4, 2, 1
	sim, cl, _ := rig(t, k*nodesEach)
	cl.Register("cc_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			return
		}
		be.Finalize()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		sessions := launchConcurrent(t, p, k, nodesEach, tpn)
		for _, s := range sessions {
			if s == nil {
				t.Fatal("missing session")
			}
		}
		// Kill the even sessions, detach the odd ones, concurrently.
		wg := vtime.NewWaitGroup(p.Sim())
		wg.Add(k)
		for i, s := range sessions {
			i, s := i, s
			p.Sim().Go(fmt.Sprintf("teardown-%d", i), func() {
				defer wg.Done()
				var err error
				if i%2 == 0 {
					err = s.Kill()
				} else {
					err = s.Detach()
				}
				if err != nil {
					t.Errorf("teardown session %d: %v", i, err)
				}
			})
		}
		wg.Wait()
		for i, s := range sessions {
			if err := s.Kill(); err != ErrSessionClosed {
				t.Errorf("session %d second teardown: %v", i, err)
			}
		}
		// Mux endpoints deregistered with their sessions.
		fe, err := newFrontEnd(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := fe.mux.Sessions(); got != 0 {
			t.Errorf("mux still tracks %d sessions after teardown", got)
		}
	})
}

func TestConcurrentDetachKillRacesAcrossSessions(t *testing.T) {
	// Eight parallel sessions; for each, Detach and Kill race from two
	// goroutines. Exactly one must win per session; the loser gets
	// ErrSessionClosed. Afterwards the mux must have deregistered every
	// session, and connections routed at a closed session's queues must be
	// shed with EOF.
	const k, nodesEach = 8, 2
	sim, cl, _ := rig(t, k*nodesEach)
	cl.Register("cc_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			return
		}
		be.Finalize()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		sessions := launchConcurrent(t, p, k, nodesEach, 1)
		for _, s := range sessions {
			if s == nil {
				t.Fatal("missing session")
			}
		}
		errs := make([]error, 2*k)
		wg := vtime.NewWaitGroup(p.Sim())
		wg.Add(2 * k)
		for i, s := range sessions {
			i, s := i, s
			p.Sim().Go(fmt.Sprintf("race-detach-%d", i), func() {
				defer wg.Done()
				errs[2*i] = s.Detach()
			})
			p.Sim().Go(fmt.Sprintf("race-kill-%d", i), func() {
				defer wg.Done()
				errs[2*i+1] = s.Kill()
			})
		}
		wg.Wait()
		for i := 0; i < k; i++ {
			de, ke := errs[2*i], errs[2*i+1]
			if (de == nil) == (ke == nil) {
				t.Errorf("session %d: detach=%v kill=%v; exactly one must win", i, de, ke)
			}
			if de != nil && !errors.Is(de, ErrSessionClosed) {
				t.Errorf("session %d: losing detach got %v", i, de)
			}
			if ke != nil && !errors.Is(ke, ErrSessionClosed) {
				t.Errorf("session %d: losing kill got %v", i, ke)
			}
		}

		fe, err := newFrontEnd(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := fe.mux.Sessions(); got != 0 {
			t.Errorf("mux still tracks %d sessions after teardown", got)
		}

		// A dial announcing a closed session's ID is shed by the mux: the
		// dialer observes EOF (not a hang) — the queue-drain contract.
		for _, s := range sessions {
			conn, err := p.Host().Dial(fe.mux.Addr())
			if err != nil {
				t.Fatalf("dial mux: %v", err)
			}
			if err := transport.WriteHello(conn, transport.Hello{Session: s.ID, Role: transport.RoleBE}); err != nil {
				t.Fatalf("hello: %v", err)
			}
			if _, err := conn.RecvMessage(); err != io.EOF {
				t.Errorf("stale dial for session %d: read err %v, want EOF", s.ID, err)
			}
			conn.Close()
		}
	})
}

func TestConcurrentLaunchAndAttachMix(t *testing.T) {
	const nodesEach, tpn = 2, 2
	sim, cl, mgr := rig(t, 4*nodesEach)
	cl.Register("cc_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			return
		}
		be.Finalize()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		// Two jobs started outside tool control...
		var jobs []rm.Job
		for i := 0; i < 2; i++ {
			j, err := mgr.StartJob(rm.JobSpec{Exe: fmt.Sprintf("user%d", i), Nodes: nodesEach, TasksPerNode: tpn})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		p.Sim().Sleep(2 * time.Second)

		// ...attached to concurrently with two fresh launches.
		sessions := make([]*Session, 4)
		errs := make([]error, 4)
		wg := vtime.NewWaitGroup(p.Sim())
		wg.Add(4)
		for i := 0; i < 4; i++ {
			i := i
			p.Sim().Go(fmt.Sprintf("mix-%d", i), func() {
				defer wg.Done()
				if i < 2 {
					sessions[i], errs[i] = AttachAndSpawn(p, Options{
						JobID:  jobs[i].ID(),
						Daemon: rm.DaemonSpec{Exe: "cc_be"},
					})
				} else {
					sessions[i], errs[i] = LaunchAndSpawn(p, Options{
						Job:    rm.JobSpec{Exe: fmt.Sprintf("fresh%d", i), Nodes: nodesEach, TasksPerNode: tpn},
						Daemon: rm.DaemonSpec{Exe: "cc_be"},
					})
				}
			})
		}
		wg.Wait()
		for i := 0; i < 4; i++ {
			if errs[i] != nil {
				t.Errorf("session %d: %v", i, errs[i])
				continue
			}
			if got := len(sessions[i].Proctab()); got != nodesEach*tpn {
				t.Errorf("session %d proctab = %d entries, want %d", i, got, nodesEach*tpn)
			}
		}
	})
}
