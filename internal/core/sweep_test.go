package core

import (
	"errors"
	"fmt"
	"regexp"
	"strconv"
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

// The fault sweep (DESIGN.md "Fault sweep"): a reference session counts the
// scheduler events from its launch to its Detach, and one replay per target
// and event injects that fault before that event fires (vtime.Sim.AtEvent).

const (
	sweepK      = 7
	sweepPeriod = 100 * time.Millisecond
	sweepMiss   = 2
	sweepReport = time.Millisecond // a failure report's way up the tree to the front end
)

// sweepTarget is one fault: hit injects it and reports whether its target
// existed; the first error must name the loss by one of names, as words.
type sweepTarget struct {
	name  string
	hit   func(r *sweepRun) bool
	names []string
}

var sweepTargets = []sweepTarget{
	hostAt("master host", 0, "master"),
	hostAt("interior host", 1, "rank 1"),
	hostAt("leaf host", 3, "rank 3"),
	hostAt("MW leaf host", sweepK+3, "mw", "MW"),
	{"engine", func(r *sweepRun) bool { return kill(r.cl.FrontEnd().FindProcByExe(engine.ExeName)) }, []string{"engine"}},
	{"rank 1 daemon", func(r *sweepRun) bool { return kill(r.procs[1]) }, []string{"rank 1", "node1"}},
	{"master daemon", func(r *sweepRun) bool { return kill(r.procs[0]) }, []string{"master", "node0"}},
	{"launcher", func(r *sweepRun) bool {
		j, ok := r.mgr.FindJob(1)
		return ok && kill(j.LauncherProc())
	}, []string{"job", "launcher"}},
	{"link 1-3", func(r *sweepRun) bool {
		r.dropped = true
		r.cl.Net().DropLink(r.cl.Node(1).Name(), r.cl.Node(3).Name())
		return true
	}, []string{"rank 1", "rank 3"}},
}

// hostAt kills compute node i: BE rank i's, or for i ≥ K MW rank i−K's.
func hostAt(name string, i int, names ...string) sweepTarget {
	return sweepTarget{name, func(r *sweepRun) bool { r.cl.KillNode(i); return true }, append(names, fmt.Sprintf("node%d", i))}
}

func kill(p *cluster.Proc) (alive bool) {
	if alive = p != nil && p.State() != cluster.StateExited; alive {
		p.Kill()
	}
	return alive
}

// sweepRun is one session: the reference (ref nil), or a replay of it with
// target's fault before event at, counted from the launch.
type sweepRun struct {
	ref    *sweepRun
	mode   SeedMode
	at     uint64
	target *sweepTarget

	sim                    *vtime.Sim
	s                      *Session
	cl                     *cluster.Cluster
	mgr                    rm.Manager
	procs                  [sweepK]*cluster.Proc // BE daemons by rank, once spawned
	dropped, hit, finished bool
	fault                  time.Duration
	events                 uint64 // the reference's, launch to Detach
	digest                 uint64 // the reference's Stats().Digest once the simulation ends
	calls                  []sweepCall
	mu                     sync.Mutex // daemons and the front end find problems
	problems               []string
}

type sweepCall struct {
	name string
	end  time.Duration
	err  error
}

func (r *sweepRun) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// run plays the session and returns the oracle's findings.
func (r *sweepRun) run(t *testing.T) []string {
	r.sim, r.cl, r.mgr = rig(t, 2*sweepK)
	// The daemons run the session's collectives, then park in a broadcast
	// that never comes until their links end, then wait to be reaped.
	r.cl.Register("sw_be", func(p *cluster.Proc) {
		rank, _ := strconv.Atoi(p.Env(rm.EnvNodeID))
		r.procs[rank] = p
		if be, err := BEInit(p); err == nil {
			pl, data := be.Collective(), []byte(nil)
			r.park(p, func() (err error) { data, err = pl.Broadcast(); return err },
				func() error { return pl.Gather(data) }, func() error { _, err := pl.Broadcast(); return err })
		}
	})
	r.cl.Register("sw_mw", func(p *cluster.Proc) {
		if mw, err := MWInit(p); err == nil {
			pl := mw.Collective()
			r.park(p, func() error { return pl.Gather([]byte{1}) }, func() error { _, err := pl.Broadcast(); return err })
		}
	})
	// A session that never ends beats on: its nodes die long after the script.
	r.sim.After(10*time.Minute, func() {
		for i := 0; i < 2*sweepK && !r.finished; i++ {
			r.cl.KillNode(i)
		}
	})
	runFE(t, r.sim, r.cl, r.fe)
	r.digest = r.sim.Stats().Digest
	if !r.finished {
		return append(r.problems, "a front-end call was still waiting when the simulation ended")
	}
	r.check()
	return r.problems
}

// park runs a daemon's collectives until one fails: a daemon killed before
// it entered one must not complete it.
func (r *sweepRun) park(p *cluster.Proc, ops ...func() error) {
	for _, op := range ops {
		dead := p.State() == cluster.StateExited
		if err := op(); err != nil {
			break
		} else if dead {
			r.problem("a killed daemon completed a collective")
		}
	}
	p.Wait()
}

// call runs and logs one front-end call; it reports success. A call on the
// session that succeeds does so while the session is up.
func (r *sweepRun) call(name string, fn func() error) bool {
	err := fn()
	r.calls = append(r.calls, sweepCall{name, r.sim.Now(), err})
	if s := r.s; err == nil && s != nil && name != "Detach" {
		s.mu.Lock()
		if s.state != stReady {
			r.problem("%s succeeded on a session in state %d", name, s.state)
		}
		s.mu.Unlock()
	}
	return err == nil
}

// fe is the tool's front end. A session that was up ends in stEnded with
// one SessionTornDown, whose detail is closedErr's cause; the blocked
// caller wakes with closedErr, a later receive gets it too, and Kill is
// refused; and the simulator has the goroutines it had before the launch.
func (r *sweepRun) fe(p *cluster.Proc) {
	sim := r.sim
	if _, err := newFrontEnd(p); err != nil {
		r.problem("front end: %v", err)
		return
	}
	pre := settledLive(sim)
	base := sim.Stats().Events
	if r.target != nil {
		sim.AtEvent(base+r.at, func() { r.fault, r.hit = sim.Now(), r.target.hit(r) })
	}
	hopts := HealthOptions{Period: sweepPeriod, Miss: sweepMiss}
	r.call("launch", func() (err error) {
		r.s, err = LaunchAndSpawn(p, Options{Job: rm.JobSpec{Exe: "app", Nodes: sweepK, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "sw_be"}, ICCLFanout: 2, SeedMode: r.mode, Health: hopts})
		return err
	})
	s := r.s
	var torn []health.Event
	var blocked error
	woke := false
	if s != nil {
		s.RegisterStatusCB(func(ev health.Event) {
			if ev.Kind == health.EvSessionTornDown {
				torn = append(torn, ev)
			}
		})
		sim.Go("blocked-recv", func() {
			_, blocked = s.RecvFromBE()
			woke = !sim.Stopped()
		})
		mwo := MWOptions{Nodes: sweepK, Daemon: rm.DaemonSpec{Exe: "sw_mw"}, ICCLFanout: 2, Health: hopts}
		_ = (r.mode != SeedCutThrough || r.call("LaunchMW", func() error { _, err := s.LaunchMW(mwo); return err }) &&
			r.call("MWGather", func() error { _, err := s.MWGather(); return err })) &&
			r.call("Broadcast", func() error { return s.Broadcast([]byte("sweep")) }) &&
			r.call("Gather", func() error { _, err := s.Gather(); return err })
		r.call("Detach", s.Detach)
	}
	if r.ref == nil {
		r.events = sim.Stats().Events - base
	}
	// A dropped link comes back, and every job is reaped — a detached one
	// runs on, and so does one whose engine was lost — while a child
	// redialing a parent that never listened runs out its window.
	sim.Sleep(time.Second)
	if r.dropped {
		r.cl.Net().RestoreLink(r.cl.Node(1).Name(), r.cl.Node(3).Name())
	}
	if j, ok := r.mgr.FindJob(1); ok {
		j.Kill()
	}
	sim.Sleep(31 * time.Second)
	if live := sim.Live(); live != pre {
		r.problem("Live() = %d after the session, %d before it", live, pre)
	}
	r.finished = true
	if s == nil {
		return
	}
	s.mu.Lock()
	state, cause := s.state, s.cause
	s.mu.Unlock()
	closed := s.closedErr()
	if len(torn) != 1 || torn[0].Detail != cause || state != stEnded {
		r.problem("ended in state %d with SessionTornDown events %+v, want stEnded and one with detail %q", state, torn, cause)
	}
	if byTool := cause == "detached by tool"; byTool != (closed == ErrSessionClosed) || !byTool && !r.names(cause) {
		r.problem("torn down for %q with closedErr %q", cause, closed)
	}
	if _, err := s.RecvFromBE(); !woke || blocked == nil || blocked.Error() != closed.Error() || err.Error() != closed.Error() {
		r.problem("blocked caller woke (%v) with %v and a later one got %v, want %q", woke, blocked, err, closed)
	}
	if err := s.Kill(); err != ErrSessionClosed {
		r.problem("Kill on the ended session: %v", err)
	}
}

// names reports whether msg names the target's loss.
func (r *sweepRun) names(msg string) bool {
	for _, n := range r.target.names {
		if regexp.MustCompile(`\b` + n + `\b`).MatchString(msg) {
			return true
		}
	}
	return false
}

// check holds the calls to the oracle. A fault that found no target leaves
// every call succeeding. Otherwise the first error names the loss, a
// collective that fails does so on a torn-down session, and every call
// ends in time: a launch within readyBound of the RM's answer,
// or engineBound of the fault; any other call within Period × (Miss + 1)
// of the fault and the report's way up.
func (r *sweepRun) check() {
	named := false
	for _, c := range r.calls {
		if !r.hit {
			if c.err != nil {
				r.problem("%s failed with no fault: %v", c.name, c.err)
			}
			continue
		}
		if c.err != nil && !named && !r.names(c.err.Error()) {
			r.problem("%s: %v", c.name, c.err)
		} else if c.err != nil && strings.Contains("MWGather Broadcast Gather", c.name) && !errors.Is(c.err, ErrSessionClosed) {
			r.problem("%s on a torn-down session: %v", c.name, c.err)
		}
		named = named || c.err != nil
		limit := r.fault + sweepPeriod*(sweepMiss+1) + sweepReport
		if mark, ok := map[string]string{"launch": engine.MarkE6, "LaunchMW": engine.MarkMW6}[c.name]; ok {
			answer, _ := r.ref.s.Timeline.Get(mark) // the RM's spawn answer in the reference
			limit = max(max(r.fault, answer)+readyBound(sweepK, 2, r.mode, 1<<20), r.fault+engineBound)
		}
		if c.end > limit {
			r.problem("%s ended %v after the fault", c.name, c.end-r.fault)
		}
	}
}

// sweepEvents is what each reference session fires from its launch to its
// Detach, and the digest of every event its simulation fires, teardown
// included (vtime's Stats().Digest of each fired event's instant and seq): a
// timer or a frame that a failure path adds to a clean run moves the count,
// and a read, charge or send that moves an event's instant or seq moves the
// digest.
var sweepEvents = map[SeedMode]struct{ events, digest uint64 }{
	SeedCutThrough:   {652, 0x6f1e7e738f6f6886},
	SeedStoreForward: {369, 0xa08aa850a41c9ca0},
}

var digits = regexp.MustCompile(`[0-9][0-9.]*(µs|ms|ns|s)?`)

// TestFaultSweep replays both sessions with every target at every event
// (every 37th under the race detector); no replay may find anything. A
// finding fails the test once per class — its numbers elided — and the
// classes are logged with their counts.
func TestFaultSweep(t *testing.T) {
	stride := uint64(1)
	if raceEnabled {
		stride = 37
	}
	var mu sync.Mutex
	seen := map[string]int{}
	t.Run("replays", func(t *testing.T) {
		for _, mode := range []SeedMode{SeedCutThrough, SeedStoreForward} {
			ref := &sweepRun{mode: mode}
			if p := ref.run(t); len(p) > 0 {
				t.Fatalf("%v reference: %v", mode, p)
			}
			if want := sweepEvents[mode]; ref.events != want.events || ref.digest != want.digest {
				t.Errorf("%v reference: %d events from launch to Detach, digest %#x at the end; want %d, %#x",
					mode, ref.events, ref.digest, want.events, want.digest)
			}
			for i := range sweepTargets {
				tg := &sweepTargets[i]
				if mode != SeedCutThrough && strings.HasPrefix(tg.name, "MW") {
					continue
				}
				t.Run(mode.String()+"/"+tg.name, func(t *testing.T) {
					t.Parallel()
					for at := uint64(0); at <= ref.events; at += stride {
						r := &sweepRun{ref: ref, mode: ref.mode, at: at, target: tg}
						for _, p := range r.run(t) {
							class := tg.name + ": " + digits.ReplaceAllString(p, "#")
							mu.Lock()
							if seen[class]++; seen[class] == 1 {
								t.Errorf("fault before event %d of %d: %s", at, ref.events, p)
							}
							mu.Unlock()
						}
					}
				})
			}
		}
	})
	t.Logf("findings by class: %v", seen)
}
