package core

import (
	"errors"
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/engine"
	"launchmon/internal/health"
	"launchmon/internal/iccl"
	"launchmon/internal/rm"
	"launchmon/internal/rm/slurm"
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

// TestTimedOutExchangeDoesNotPoisonNext: a LaunchMW that fails before the
// engine's spawn answer — its master's node dies while the RM is still
// spawning the master's siblings — leaves that reply owed. It must not be
// handed to the Kill that follows (which then failed to decode a node list
// as a status): the abandoned slot stays in the reply queue and takes it.
func TestTimedOutExchangeDoesNotPoisonNext(t *testing.T) {
	const jobNodes, mwNodes = 4, 32
	sim, cl, _ := rig(t, jobNodes+mwNodes)
	registerMortal(cl, "poison_be", "unused_mw")
	cl.Register("poison_mw", func(p *cluster.Proc) {
		if p.Env(rm.EnvNodeID) == "0" {
			sim.After(time.Millisecond, func() { cl.KillNodeByName(p.Node().Name()) }) // it has dialed the FE
		}
		if _, err := MWInit(p); err == nil {
			p.Wait()
		}
	})
	torn := 0
	runFE(t, sim, cl, func(p *cluster.Proc) {
		if _, err := newFrontEnd(p); err != nil { // the mux and its reaper are per process
			t.Error(err)
			return
		}
		pre := settledLive(sim)
		s, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: jobNodes, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "poison_be"},
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
		s.mu.Lock()
		owed := len(s.replies)
		s.mu.Unlock()
		_, err = s.LaunchMW(MWOptions{Nodes: mwNodes, Daemon: rm.DaemonSpec{Exe: "poison_mw"}})
		s.mu.Lock()
		owed = len(s.replies) - owed
		s.mu.Unlock()
		if err == nil || !strings.Contains(err.Error(), "awaiting MW master ready") || owed != 1 {
			t.Errorf("LaunchMW of %d nodes with its master lost: %v with %d answers owed, want the master's loss before the spawn answer", mwNodes, err, owed)
		}
		if err := s.Kill(); err != nil {
			t.Errorf("Kill after the failed LaunchMW: %v", err)
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
			Job:    rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "nog_crash"},
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

// launchCell is one launch-phase fault: a K-daemon fabric — BE, or MW
// under a healthy BE session — whose launch breaks before its master
// reports ready.
type launchCell struct {
	name   string
	k      int
	mw     bool
	fanout int
	mode   SeedMode
	absent string // the rank whose daemon never starts ("" = none)
	held   string // the rank whose daemon starts killAt late ("" = none)
	// killAt into the launch, the node of BE rank victim dies — its daemon,
	// when daemon is set; the launch then fails within `within` (0: at
	// readyBound of the RM's answer), and the ranks in quit stop dialing
	// within one DialRetry.
	killAt, within time.Duration
	victim         int
	daemon         bool
	cut            int // with killAt: the link between the nodes of ranks victim and cut goes down instead
	quit           []string
	slurm          slurm.Config
	want           string   // in the launch's error; "" = the launch succeeds
	waits          string   // a rank the master's answer names among those it waits on
	ready          []string // ranks whose ready the master holds, which its answer must not name
}

// TestLaunchFaultEndsInNamedState: a launch whose daemon fabric cannot
// form ends in an error that names it — never "engine connection lost" —
// at the latest readyBound after the RM's spawn answer, or promptly after
// a fault the fabric sees itself. A master that connected but never
// reported ready answers the front end's ask readyGrace before the bound
// — from its bootstrap or its ready gather — with the ranks it still waits
// on, the absent one among them. The simulator is back to the
// goroutines it had before the launch 31 s of virtual time after the call
// returns: the forming tree tore down, and a child redialing a parent that
// never listened has run out its window.
func TestLaunchFaultEndsInNamedState(t *testing.T) {
	var cells []launchCell
	for _, mw := range []bool{false, true} {
		for _, c := range []launchCell{
			{name: "leaf never starts/fanout 0", absent: "7"},
			// Rank 7 is rank 3's child, under the master's slot 0 (rank 1);
			// slot 1's subtree, ranks 2, 5 and 6, has reported ready.
			{name: "leaf never starts/fanout 2", fanout: 2, absent: "7", ready: []string{"2", "5", "6"}},
			{name: "interior never starts/fanout 2", fanout: 2, absent: "1"},
			{name: "master never connects", fanout: 2, absent: "0", want: "master daemon did not connect within"},
			{name: "leaf never starts/store-forward", fanout: 2, absent: "7", mode: SeedStoreForward},
			{name: "interior never starts/store-forward", fanout: 2, absent: "1", mode: SeedStoreForward},
		} {
			if mw && c.mode == SeedStoreForward {
				continue // the MW fabric is always cut-through
			}
			c.k, c.mw = 8, mw
			if c.want == "" {
				c.want, c.waits = "master daemon did not report ready within", c.absent
			}
			if mw {
				c.name = "MW " + c.name
			}
			cells = append(cells, c)
		}
	}
	cells = append(cells,
		// Rank 1 has joined the master, and rank 3, its child, is held back
		// past the kill: the master's own bootstrap fails reading rank 1's
		// ready, and it tells the front end which rank it lost.
		launchCell{name: "interior killed mid-join", k: 8, fanout: 2, victim: 1, held: "3", killAt: 60 * time.Millisecond,
			within: time.Millisecond, want: "BE master daemon: iccl: bootstrap failed: rank 1: simnet: peer host is dead"},
		// Leaf rank 3's node dies with its join on the way: rank 1's accept
		// pins the dead link on rank 3 by its host and sends the master a
		// status frame saying so, which the master passes to its front end.
		launchCell{name: "leaf lost in the ready wave", k: 7, fanout: 2, victim: 3, killAt: 35320 * time.Microsecond,
			within: time.Millisecond, want: "BE master daemon: iccl: bootstrap failed: rank 3 (join): simnet: peer host is dead"},
		// The same node dies after rank 1's bootstrap, in the ready gather.
		launchCell{name: "leaf lost in the ready gather", k: 7, fanout: 2, victim: 3, killAt: 36150 * time.Microsecond,
			within: time.Millisecond, want: "BE master daemon: rank 3 (gather): simnet: peer host is dead"},
		// Under store-forward rank 1 redials the master until it listens,
		// after the RM's answer; rank 1's node, or its daemon, is lost first.
		// The master answers the front end's ask with rank 1's subtree.
		launchCell{name: "interior host lost before it joins/store-forward", k: 7, fanout: 2, mode: SeedStoreForward,
			victim: 1, killAt: 40 * time.Millisecond, want: "BE master daemon did not report ready within", waits: "1"},
		launchCell{name: "interior daemon lost before it joins/store-forward", k: 7, fanout: 2, mode: SeedStoreForward,
			victim: 1, daemon: true, killAt: 40 * time.Millisecond, want: "BE master daemon did not report ready within", waits: "1"},
		// Under store-forward the link between ranks 1 and 3 goes down once
		// the tree has formed: rank 3 never gets the seed broadcast, rank 1's
		// ready gather waits on it and the master's on rank 1. The master
		// answers the front end's ask from its ready gather with rank 1's
		// subtree; rank 2's gather has reached it.
		launchCell{name: "link lost before the ready gather/store-forward", k: 7, fanout: 2, mode: SeedStoreForward,
			victim: 1, cut: 3, killAt: 45 * time.Millisecond, want: "BE master daemon did not report ready within",
			waits: "1", ready: []string{"2", "5", "6"}},
		// Ranks 5 and 6 are redialing rank 2, which is not listening yet;
		// the RM reports the dead node.
		launchCell{name: "parent node killed before it listens", k: 8, fanout: 2, victim: 2, killAt: 33 * time.Millisecond,
			within: 20 * time.Millisecond, quit: []string{"5", "6"}, want: "peer host is dead"},
		// The job launch alone takes 11 virtual minutes.
		launchCell{name: "big job", k: 4, slurm: slurm.Config{PerTaskRootCost: 165 * time.Second}},
	)
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) { runLaunchCell(t, c) })
	}
}

// runLaunchCell runs one launchCell and checks what
// TestLaunchFaultEndsInNamedState promises.
func runLaunchCell(t *testing.T, c launchCell) {
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: 2 * c.k})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := slurm.Install(cl, c.slurm)
	if err != nil {
		t.Fatal(err)
	}
	Setup(cl, mgr)
	var spawned time.Duration // the last daemon's start: the RM answers after it
	var victim *cluster.Proc
	failed := map[string]time.Duration{} // rank → when its init failed
	for exe, fab := range map[string]*fabricProfile{"lf_be": &beFabric, "lf_mw": &mwFabric} {
		fab := fab
		cl.Register(exe, func(p *cluster.Proc) {
			rank := p.Env(rm.EnvNodeID)
			if fab.mw == c.mw {
				spawned = max(spawned, sim.Now())
				if rank == c.absent {
					return
				}
				if rank == strconv.Itoa(c.victim) {
					victim = p
				}
				if rank == c.held {
					sim.Sleep(c.killAt)
				}
			}
			if _, err := initDaemon(p, fab); err != nil {
				failed[rank] = sim.Now()
				return
			}
			p.Wait()
		})
	}
	runFE(t, sim, cl, func(p *cluster.Proc) {
		if _, err := newFrontEnd(p); err != nil {
			t.Error(err)
			return
		}
		pre := settledLive(sim)
		opts := Options{Job: rm.JobSpec{Exe: "app", Nodes: c.k, TasksPerNode: 1}, Daemon: rm.DaemonSpec{Exe: "lf_be"}, SeedMode: c.mode}
		var s *Session
		var err error
		if c.mw {
			if s, err = LaunchAndSpawn(p, opts); err != nil {
				t.Error(err)
				return
			}
		} else {
			opts.ICCLFanout = c.fanout
		}
		t0 := sim.Now()
		fault := t0 + c.killAt
		if c.killAt > 0 {
			sim.After(c.killAt, func() {
				switch {
				case c.cut > 0:
					cl.Net().DropLink(cl.Node(c.victim).Name(), cl.Node(c.cut).Name())
				case c.daemon:
					victim.Kill()
				default:
					cl.KillNode(c.victim)
				}
			})
		}
		if c.mw {
			_, err = s.LaunchMW(MWOptions{Nodes: c.k, Daemon: rm.DaemonSpec{Exe: "lf_mw"}, ICCLFanout: c.fanout})
		} else {
			s, err = LaunchAndSpawn(p, opts)
		}
		ended := sim.Now()
		switch {
		case c.want == "":
			if err != nil || ended-t0 < 10*time.Minute {
				t.Errorf("launch returned %v after %v, want a launch longer than the old 10-minute bound", err, ended-t0)
			}
		case err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "engine connection lost"):
			t.Errorf("launch returned %v, want an error with %q", err, c.want)
		case c.within > 0:
			if ended-fault > c.within {
				t.Errorf("launch failed %v after the kill, want within %v", ended-fault, c.within)
			}
		default:
			// The clock started at the RM's answer, which follows the last
			// spawn by the RM's acks (slurm: 1.8 ms a daemon), and ran
			// readyBound — with the seed bytes the front end relayed — less
			// readyGrace, which the master's answer takes back in part.
			msg := err.Error()
			if c.waits != "" && !regexp.MustCompile(`waiting on rank (\d+, )*`+c.waits+`\b`).MatchString(msg) {
				t.Errorf("launch returned %v, want the ranks the master waits on, rank %s among them", err, c.waits)
			}
			if m := regexp.MustCompile(`waiting on rank ([\d, ]+)`).FindStringSubmatch(msg); m != nil {
				for _, r := range strings.Split(m[1], ", ") {
					if slices.Contains(c.ready, r) {
						t.Errorf("launch returned %v, naming rank %s, whose ready the master holds", err, r)
					}
				}
			}
			bound, _ := time.ParseDuration(strings.Fields(msg[strings.Index(msg, "within ")+len("within "):])[0])
			if lag := ended - bound - spawned; lag < 0 || lag > time.Duration(c.k)*2*time.Millisecond ||
				bound > readyBound(c.k, c.fanout, c.mode, 1<<20) || ended-t0 > time.Second {
				t.Errorf("launch failed %v after its start and %v after the last spawn with %v, want readyBound(K=%d) of the RM's answer",
					ended-t0, ended-spawned, err, c.k)
			}
		}
		for _, r := range c.quit {
			if at, ok := failed[r]; !ok || at < fault || at > fault+iccl.DialRetry {
				t.Errorf("rank %s gave up at %v (%v), want within %v of the kill at %v", r, at, ok, iccl.DialRetry, fault)
			}
		}
		if s != nil {
			s.Kill()
		} else if j, ok := mgr.FindJob(1); ok {
			j.Kill()
		}
		sim.Sleep(31 * time.Second)
		if got := sim.Live(); got != pre {
			t.Errorf("Live() = %d 31 s after the launch returned, %d before it", got, pre)
		}
	})
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
					if _, err := newFrontEnd(p); err != nil {
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
	// returned). Rank 1's Wait fails, and rank 1 sends its parent a status
	// frame pinning the failure on rank 3's seed forward and tears down what
	// it formed, so the master's ready gather fails with that cause, the
	// master tells its front end it lost rank 3, and the launch returns that. The 4 MiB FEData keeps the
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
			if _, err := newFrontEnd(p); err != nil {
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
				!strings.Contains(err.Error(), "BE master daemon: rank 3 (seed)") || took > time.Second {
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
