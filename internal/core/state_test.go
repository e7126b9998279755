package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/engine"
	"launchmon/internal/health"
	"launchmon/internal/rm"
	"launchmon/internal/vtime"
)

// The session state machine (state.go): what a session parks, where every
// fault leaves it, and who gets an engine reply whose waiter has left.

// registerMortal registers a back-end and a middleware daemon that join
// the session and stay resident until killed — waiting on their own exit,
// so that, unlike registerResidentBE's, their goroutines end with them and
// Sim.Live() can be compared across a session.
func registerMortal(cl *cluster.Cluster, be, mw string) {
	cl.Register(be, func(p *cluster.Proc) {
		if _, err := BEInit(p); err == nil {
			p.Wait()
		}
	})
	cl.Register(mw, func(p *cluster.Proc) {
		if _, err := MWInit(p); err == nil {
			p.Wait()
		}
	})
}

// settledLive lets whatever is ending end — a finished session's teardown,
// before one the goroutine that spawned the calling process — and reads the
// simulator's goroutine count. A daemon killed while it was still dialing
// its tree parent ends at its next attempt, well inside the wait.
func settledLive(sim *vtime.Sim) int {
	sim.Sleep(5 * time.Second)
	return sim.Live()
}

// TestTimedOutExchangeDoesNotPoisonNext: a LaunchMW that gives up on the
// engine's spawn status leaves that reply owed. It must not be handed to
// the Kill that follows (which then failed to decode a node list as a
// status): the abandoned slot stays in the reply queue and takes it.
func TestTimedOutExchangeDoesNotPoisonNext(t *testing.T) {
	const jobNodes, mwNodes = 4, 32
	sim, cl, _ := rig(t, jobNodes+mwNodes)
	registerMortal(cl, "poison_be", "poison_mw")
	torn := 0
	runFE(t, sim, cl, func(p *cluster.Proc) {
		if _, err := NewFrontEnd(p); err != nil { // the mux and its reaper are per process
			t.Error(err)
			return
		}
		pre := settledLive(sim)
		s, err := LaunchAndSpawn(p, Options{
			Job:     rm.JobSpec{Exe: "app", Nodes: jobNodes, TasksPerNode: 1},
			Daemon:  rm.DaemonSpec{Exe: "poison_be"},
			Timeout: 40 * time.Millisecond,
		})
		if err != nil {
			t.Error(err)
			return
		}
		s.RegisterStatusCB(func(ev health.Event) {
			if ev.Kind == health.EvSessionTornDown {
				torn++
			}
		})
		_, err = s.LaunchMW(MWOptions{Nodes: mwNodes, Daemon: rm.DaemonSpec{Exe: "poison_mw"}})
		if err == nil || !strings.Contains(err.Error(), "timeout") {
			t.Errorf("LaunchMW of %d nodes within 40ms: %v, want a timeout", mwNodes, err)
		}
		if err := s.Kill(); err != nil {
			t.Errorf("Kill after the timed-out LaunchMW: %v", err)
		}
		if got := settledLive(sim); got != pre {
			t.Errorf("Live() = %d after the session, %d before it", got, pre)
		}
	})
	if torn != 1 {
		t.Errorf("%d SessionTornDown events, want 1", torn)
	}
}

// TestSessionSpawnsNoFEGoroutine: the front end's half of a session is
// handlers and the caller's own goroutine. Nothing it does — launching in
// either seed mode, LaunchMW, a collective round trip, Detach, Kill, a
// launch or a LaunchMW that fails — starts a goroutine for the session or
// for a dial into the mux, and the seed streams it feeds start none in
// either daemon tree.
func TestSessionSpawnsNoFEGoroutine(t *testing.T) {
	const nodes = 4
	sim, cl, _ := rig(t, 64)
	var mu sync.Mutex
	var spawned []string
	sim.SetSpawnObserver(func(name string) {
		mu.Lock()
		spawned = append(spawned, name)
		mu.Unlock()
	})
	cl.Register("nog_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			return
		}
		if data, err := be.Collective().Broadcast(); err == nil {
			be.Collective().Gather(data)
		}
		p.Wait()
	})
	registerMortal(cl, "unused_be", "nog_mw")
	cl.Register("nog_crash", func(p *cluster.Proc) {})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		for i, mode := range []SeedMode{SeedCutThrough, SeedStoreForward} {
			s, err := LaunchAndSpawn(p, Options{
				Job:      rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: 2},
				Daemon:   rm.DaemonSpec{Exe: "nog_be"},
				SeedMode: mode, ICCLFanout: 2,
			})
			if err != nil {
				t.Errorf("%v: %v", mode, err)
				return
			}
			if _, err := s.LaunchMW(MWOptions{Nodes: 2, Daemon: rm.DaemonSpec{Exe: "nog_crash"}, ICCLFanout: 2}); err == nil {
				t.Errorf("%v: LaunchMW with crashing daemons succeeded", mode)
			}
			if _, err := s.LaunchMW(MWOptions{Nodes: 2, Daemon: rm.DaemonSpec{Exe: "nog_mw"}, ICCLFanout: 2}); err != nil {
				t.Errorf("%v: LaunchMW after a failed one: %v", mode, err)
			}
			if err := s.Broadcast([]byte("ping")); err != nil {
				t.Errorf("%v: %v", mode, err)
			}
			if _, err := s.Gather(); err != nil {
				t.Errorf("%v: %v", mode, err)
			}
			end := s.Detach
			if i == 1 {
				end = s.Kill
			}
			if err := end(); err != nil {
				t.Errorf("%v: ending the session: %v", mode, err)
			}
		}
		if _, err := LaunchAndSpawn(p, Options{
			Job:     rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: 1},
			Daemon:  rm.DaemonSpec{Exe: "nog_crash"},
			Timeout: time.Second,
		}); err == nil {
			t.Error("launch with crashing daemons succeeded")
		}
	})
	if len(spawned) == 0 {
		t.Fatal("the spawn observer saw nothing")
	}
	for _, name := range spawned {
		if strings.HasPrefix(name, "fe-sess-") || strings.HasPrefix(name, "transport-mux") || strings.HasPrefix(name, "iccl-") {
			t.Errorf("the session spawned goroutine %q", name)
		}
	}
}

// TestFaultEndsInNamedState: whatever is lost, and whatever the session
// was doing, the session ends in stEnded with exactly one SessionTornDown
// whose detail — like closedErr — names the first cause, a caller blocked
// in a receive or a collective wakes with that error, and the simulator is
// left with the goroutines it had before the session.
func TestFaultEndsInNamedState(t *testing.T) {
	const jobNodes, mwNodes, period = 4, 3, 100 * time.Millisecond
	type rigged struct {
		cl  *cluster.Cluster
		mgr rm.Manager
		p   *cluster.Proc
		s   *Session
	}
	sources := []struct {
		name          string
		inject        func(r rigged)
		fault, detail string
		needsMW       bool
	}{
		{name: "engine killed", fault: "engine connection lost", detail: "watchdog: engine connection lost",
			inject: func(r rigged) { r.p.Node().FindProcByExe(engine.ExeName).Kill() }},
		{name: "BE master node killed", fault: "master daemon connection severed", detail: "watchdog: master daemon lost",
			inject: func(r rigged) { r.cl.KillNodeByName(r.s.Daemons()[0].Host) }},
		{name: "interior daemon lost", fault: "daemon rank 1 lost", detail: "watchdog: daemon rank 1 lost",
			inject: func(r rigged) { r.cl.KillNodeByName(r.s.Daemons()[1].Host) }},
		{name: "job exit", fault: "job exited", detail: "watchdog: job exited",
			inject: func(r rigged) {
				j, _ := r.mgr.FindJob(1)
				j.LauncherProc().Kill()
			}},
		{name: "MW daemon lost", fault: "mw daemon rank 1 lost", detail: "watchdog: mw daemon rank 1 lost", needsMW: true,
			inject: func(r rigged) { r.cl.KillNodeByName(r.s.MWDaemons()[1].Host) }},
	}
	mw := func(exe string) MWOptions {
		return MWOptions{Nodes: mwNodes, Daemon: rm.DaemonSpec{Exe: exe}, ICCLFanout: 2,
			Health: HealthOptions{Period: period, Miss: 2}}
	}
	for _, src := range sources {
		for _, at := range []string{"ready", "mid-LaunchMW", "mid-Detach"} {
			if src.needsMW && at == "mid-LaunchMW" {
				continue // the fabric whose daemon is to be lost is not up yet
			}
			src, at := src, at
			t.Run(src.name+"/"+at, func(t *testing.T) {
				sim, cl, mgr := rig(t, jobNodes+2*mwNodes)
				registerMortal(cl, "named_be", "named_mw")
				var torn []health.Event
				runFE(t, sim, cl, func(p *cluster.Proc) {
					if _, err := NewFrontEnd(p); err != nil {
						t.Error(err)
						return
					}
					pre := settledLive(sim)
					s, err := LaunchAndSpawn(p, Options{
						Job:        rm.JobSpec{Exe: "app", Nodes: jobNodes, TasksPerNode: 1},
						Daemon:     rm.DaemonSpec{Exe: "named_be"},
						ICCLFanout: 2,
						Health:     HealthOptions{Period: period, Miss: 2},
					})
					if err != nil {
						t.Error(err)
						return
					}
					done := vtime.NewChan[health.Event](sim)
					s.RegisterStatusCB(func(ev health.Event) {
						if ev.Kind == health.EvSessionTornDown {
							torn = append(torn, ev)
							done.Send(ev)
						}
					})
					if src.needsMW {
						if _, err := s.LaunchMW(mw("named_mw")); err != nil {
							t.Error(err)
							return
						}
					}
					sim.Sleep(time.Second) // steady state

					// Two callers the fault must wake.
					woken := vtime.NewChan[error](sim)
					sim.Go("blocked-recv", func() {
						_, err := s.RecvFromBE()
						woken.Send(err)
					})
					sim.Go("blocked-gather", func() {
						_, err := s.Gather()
						woken.Send(err)
					})
					// What the session is doing when the fault lands.
					busy := vtime.NewWaitGroup(sim)
					switch at {
					case "mid-LaunchMW":
						busy.Add(1)
						sim.Go("launching-mw", func() {
							defer busy.Done()
							if _, err := s.LaunchMW(mw("named_mw")); err == nil {
								t.Error("LaunchMW across the fault succeeded")
							}
						})
						sim.Sleep(2 * time.Millisecond) // the spawn exchange is under way
					case "mid-Detach":
						busy.Add(1)
						sim.Go("detaching", func() {
							defer busy.Done()
							s.Detach() // its answer may be lost with the engine
						})
						sim.Sleep(time.Microsecond) // the request is on the wire
					}
					src.inject(rigged{cl, mgr, p, s})

					wantErr, wantDetail := fmt.Sprintf("core: session torn down: %s: %v", src.fault, ErrSessionClosed), src.detail
					if at == "mid-Detach" {
						// The tool ended the session first: that is the cause.
						wantErr, wantDetail = ErrSessionClosed.Error(), "detached by tool"
					}
					if ev, ok := done.Recv(); !ok || ev.Detail != wantDetail {
						t.Errorf("SessionTornDown %+v (ok=%v), want detail %q", ev, ok, wantDetail)
					}
					busy.Wait()
					for i := 0; i < 2; i++ {
						if err, _ := woken.Recv(); !errors.Is(err, ErrSessionClosed) || err.Error() != wantErr {
							t.Errorf("blocked caller woke with %v, want %q", err, wantErr)
						}
					}
					if err := s.closedErr(); err.Error() != wantErr {
						t.Errorf("closedErr() = %v, want %q", err, wantErr)
					}
					s.mu.Lock()
					state := s.state
					s.mu.Unlock()
					if state != stEnded {
						t.Errorf("final state %d, want stEnded", state)
					}
					if err := s.Kill(); err != ErrSessionClosed {
						t.Errorf("Kill on the ended session: %v", err)
					}
					// A detached job runs on with its daemons, and so does one
					// whose engine — the session's only way to the RM — was
					// lost: the test reaps those itself.
					if j, ok := mgr.FindJob(1); ok {
						j.Kill()
					}
					if got := settledLive(sim); got != pre {
						t.Errorf("Live() = %d after the session, %d before it", got, pre)
					}
				})
				if len(torn) != 1 {
					t.Errorf("%d SessionTornDown events, want 1: %+v", len(torn), torn)
				}
			})
		}
	}
	// The one cell whose launch fails: a leaf's node dies while the seed
	// streams to it (rank 3, under rank 1, after rank 1's bootstrap has
	// returned). Rank 1's Wait fails and rank 1 tears down what it formed,
	// so the master's ready gather fails, the master closes its front-end
	// connection, and the launch returns that. The 4 MiB FEData keeps the
	// stream milliseconds a hop; a kill anywhere in +34 … +46 ms of the
	// launch lands in this window on this rig, and before the teardown every
	// one of them left the launch waiting until the simulation ended.
	t.Run("leaf node killed/mid-seed", func(t *testing.T) {
		const killAt = 40 * time.Millisecond
		sim, cl, mgr := rig(t, jobNodes+2*mwNodes)
		leaf := ""
		cl.Register("seed_be", func(p *cluster.Proc) {
			if p.Env(rm.EnvNodeID) == "3" {
				leaf = p.Node().Name()
			}
			if _, err := BEInit(p); err == nil {
				p.Wait()
			}
		})
		runFE(t, sim, cl, func(p *cluster.Proc) {
			if _, err := NewFrontEnd(p); err != nil {
				t.Error(err)
				return
			}
			pre := settledLive(sim)
			killed := false
			sim.After(killAt, func() { killed = cl.KillNodeByName(leaf) })
			t0 := sim.Now()
			_, err := LaunchAndSpawn(p, Options{
				Job:        rm.JobSpec{Exe: "app", Nodes: jobNodes, TasksPerNode: 1},
				Daemon:     rm.DaemonSpec{Exe: "seed_be"},
				ICCLFanout: 2,
				FEData:     make([]byte, 4<<20),
			})
			if took := sim.Now() - t0 - killAt; !killed || err == nil ||
				!strings.Contains(err.Error(), "awaiting BE master ready") || took > time.Second {
				t.Errorf("killed %q: %v; launch returned %v after the kill with %v, want the master's ready wait failing within 1s",
					leaf, killed, took, err)
			}
			if j, ok := mgr.FindJob(1); ok {
				j.Kill()
			}
			if got := settledLive(sim); got != pre {
				t.Errorf("Live() = %d after the launch, %d before it", got, pre)
			}
		})
	})
}
