package health

import (
	"fmt"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/iccl"
	"launchmon/internal/vtime"
)

// healthRig boots n "daemon" processes (one per compute node) that each
// bootstrap into an ICCL tree, share its links, and start a monitor on
// them — the one heartbeat transport — and returns the root's monitor
// through rootCh. A daemon lives until its monitor halts (root stopped by
// the driver, parent link closed, or its node killed) and then closes its
// communicator, which is what carries the teardown to its children.
func healthRig(t *testing.T, n, fanout int, period time.Duration, miss int) (*vtime.Sim, *cluster.Cluster, *vtime.Chan[*Monitor]) {
	t.Helper()
	return healthRigAt(t, n, fanout, period, miss, atOnce)
}

// atOnce starts a rank's monitor the moment its links are shared.
func atOnce(_ *cluster.Proc, _ int, start func() (*Monitor, error)) (*Monitor, error) { return start() }

// healthRigAt is healthRig with each rank's StartOnLinks handed to a hook
// to call — when it chooses, and looking at what it likes on either side.
func healthRigAt(t *testing.T, n, fanout int, period time.Duration, miss int,
	hook func(p *cluster.Proc, rank int, start func() (*Monitor, error)) (*Monitor, error),
) (*vtime.Sim, *cluster.Cluster, *vtime.Chan[*Monitor]) {
	t.Helper()
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	nodelist := make([]string, n)
	for i := 0; i < n; i++ {
		nodelist[i] = cl.Node(i).Name()
	}
	rootCh := vtime.NewChan[*Monitor](sim)
	for i := 0; i < n; i++ {
		i := i
		if _, err := cl.Node(i).SpawnSystemProc(cluster.Spec{
			Exe: fmt.Sprintf("hd%d", i),
			Main: func(p *cluster.Proc) {
				comm, err := iccl.Bootstrap(p, iccl.Config{
					Rank: i, Size: n, Fanout: fanout, Nodelist: nodelist, Port: 59000,
				})
				if err != nil {
					t.Errorf("rank %d bootstrap: %v", i, err)
					return
				}
				defer comm.Close()
				parent, children := comm.ShareLinks()
				m, err := hook(p, i, func() (*Monitor, error) {
					return StartOnLinks(p, Config{
						Rank: i, Size: n, Fanout: fanout, Period: period, Miss: miss,
					}, parent, children)
				})
				if err != nil {
					t.Errorf("rank %d: %v", i, err)
					return
				}
				if i == 0 {
					rootCh.Send(m)
				}
				for !m.halted() {
					p.Sim().Sleep(period)
				}
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return sim, cl, rootCh
}

// staggered starts rank i's monitor at 1s + i ms, whatever order the host
// ran the bootstraps in: every tick's phase is set by the test, and each
// StartOnLinks runs at a virtual instant nothing else runs at.
func staggered(p *cluster.Proc, rank int, start func() (*Monitor, error)) (*Monitor, error) {
	p.Sim().Sleep(time.Second + time.Duration(rank)*time.Millisecond - p.Sim().Now())
	return start()
}

// healthShapes are the tree shapes every detection path is checked on: a
// lone root (no links at all), one more daemon than the fanout (a full
// first level), and a prime count that fills three levels unevenly.
var healthShapes = []struct{ n, fanout int }{{1, 3}, {4, 3}, {7, 2}}

func TestSeveredNodeDetectedFast(t *testing.T) {
	period := 200 * time.Millisecond
	for _, shape := range healthShapes {
		t.Run(fmt.Sprintf("K%d_f%d", shape.n, shape.fanout), func(t *testing.T) {
			victim := shape.n - 1 // deepest-ranked daemon, a leaf
			sim, cl, rootCh := healthRig(t, shape.n, shape.fanout, period, 3)
			var report Report
			var latency time.Duration
			sim.Go("driver", func() {
				root, ok := rootCh.Recv()
				if !ok {
					t.Error("no root monitor")
					return
				}
				defer root.Stop()
				sim.Sleep(1 * time.Second) // steady state
				if victim == 0 {
					return // a lone root has nobody to lose
				}
				killAt := sim.Now()
				cl.KillNode(victim)
				r, ok := root.Failures().Recv()
				if !ok {
					t.Error("failure stream closed early")
					return
				}
				report, latency = r, sim.Now()-killAt
			})
			sim.Run()
			if victim == 0 {
				return
			}
			if report.Rank != victim {
				t.Errorf("reported rank %d, want %d", report.Rank, victim)
			}
			if report.Detail != "connection severed" {
				t.Errorf("detail %q", report.Detail)
			}
			// Sever detection is the fast path: well under one period.
			if latency > period {
				t.Errorf("detection took %v with period %v", latency, period)
			}
		})
	}
}

func TestSilentLinkDropDetectedWithinDeadline(t *testing.T) {
	period := 100 * time.Millisecond
	const miss = 3
	for _, shape := range healthShapes[1:] {
		t.Run(fmt.Sprintf("K%d_f%d", shape.n, shape.fanout), func(t *testing.T) {
			victim := shape.n - 1
			parent := iccl.Parent(victim, shape.fanout)
			sim, cl, rootCh := healthRig(t, shape.n, shape.fanout, period, miss)
			var report Report
			var latency time.Duration
			sim.Go("driver", func() {
				root, ok := rootCh.Recv()
				if !ok {
					t.Error("no root monitor")
					return
				}
				defer root.Stop()
				sim.Sleep(1 * time.Second)
				dropAt := sim.Now()
				// The victim's beats vanish silently; only its parent's miss
				// threshold can see it.
				cl.Net().DropLink(cl.Node(parent).Name(), cl.Node(victim).Name())
				r, ok := root.Failures().Recv()
				if !ok {
					t.Error("failure stream closed early")
					return
				}
				report, latency = r, sim.Now()-dropAt
			})
			sim.Run()
			if report.Rank != victim {
				t.Errorf("reported rank %d, want %d", report.Rank, victim)
			}
			if report.Detail != "heartbeat timeout" {
				t.Errorf("detail %q", report.Detail)
			}
			deadline := time.Duration(miss+1) * period
			if latency > deadline {
				t.Errorf("silent failure detected after %v, deadline %v", latency, deadline)
			}
			if latency < time.Duration(miss)*period-period {
				t.Errorf("silent failure detected implausibly fast: %v", latency)
			}
		})
	}
}

func TestInteriorDeathReportsSubtreeUnreachable(t *testing.T) {
	// Rank 1's whole subtree must be reported, descendants as unreachable:
	// {1} alone in the one-level shape, {1, 3, 4} in the prime one.
	for _, shape := range healthShapes[1:] {
		t.Run(fmt.Sprintf("K%d_f%d", shape.n, shape.fanout), func(t *testing.T) {
			subtree := iccl.SubtreeRanks(1, shape.n, shape.fanout)
			sim, cl, rootCh := healthRig(t, shape.n, shape.fanout, 100*time.Millisecond, 3)
			got := map[int]string{}
			sim.Go("driver", func() {
				root, ok := rootCh.Recv()
				if !ok {
					t.Error("no root monitor")
					return
				}
				defer root.Stop()
				sim.Sleep(1 * time.Second)
				cl.KillNode(1)
				for len(got) < len(subtree) {
					r, ok := root.Failures().Recv()
					if !ok {
						t.Error("failure stream closed early")
						return
					}
					got[r.Rank] = r.Detail
				}
			})
			sim.Run()
			for _, r := range subtree {
				want := "unreachable"
				if r == 1 {
					want = "connection severed"
				}
				if got[r] != want {
					t.Errorf("rank %d detail %q, want %q", r, got[r], want)
				}
			}
		})
	}
}

func TestRootStopCascades(t *testing.T) {
	// After the root stops and its communicator closes, every monitor
	// below observes its parent link closing and winds down in turn, and
	// the simulation quiesces — the absence of a hang IS the assertion
	// (beat loops left running would keep virtual time advancing forever).
	for _, shape := range healthShapes {
		t.Run(fmt.Sprintf("K%d_f%d", shape.n, shape.fanout), func(t *testing.T) {
			sim, _, rootCh := healthRig(t, shape.n, shape.fanout, 100*time.Millisecond, 3)
			sim.Go("driver", func() {
				root, ok := rootCh.Recv()
				if !ok {
					t.Error("no root monitor")
					return
				}
				sim.Sleep(500 * time.Millisecond)
				root.Stop()
			})
			end := sim.Run()
			if end > time.Hour {
				t.Errorf("simulation ran to %v; teardown did not cascade", end)
			}
		})
	}
}

func TestEventCodecRoundTrip(t *testing.T) {
	for _, ev := range []Event{
		{Kind: EvDaemonsSpawned, Rank: -1, Detail: ""},
		{Kind: EvJobExited, Rank: -1, Code: 137, Detail: "killed"},
		{Kind: EvDaemonExited, Rank: 42, Detail: "connection severed"},
		{Kind: EvSessionTornDown, Rank: -1, Detail: "watchdog"},
	} {
		got, err := DecodeEvent(EncodeEvent(ev))
		if err != nil {
			t.Fatalf("%v: %v", ev, err)
		}
		if got != ev {
			t.Errorf("round trip: got %+v want %+v", got, ev)
		}
	}
	if _, err := DecodeEvent([]byte{1, 2}); err == nil {
		t.Error("truncated event decoded")
	}
}

// TestSimultaneousTimeoutsReportInRankOrder drops two of the root's child
// links at one instant, so both children time out in the same tick: they
// must be declared dead in the tree's slot order, every time (a walk over
// a rank-keyed map declared them in whatever order the map gave that run).
func TestSimultaneousTimeoutsReportInRankOrder(t *testing.T) {
	for run := 0; run < 50; run++ {
		sim, cl, rootCh := healthRigAt(t, 4, 3, 100*time.Millisecond, 3, staggered)
		var got []int
		var at []time.Duration
		sim.Go("driver", func() {
			root, ok := rootCh.Recv()
			if !ok {
				t.Error("no root monitor")
				return
			}
			defer root.Stop()
			sim.Sleep(1 * time.Second)
			for _, victim := range []int{2, 1} {
				cl.Net().DropLink(cl.Node(0).Name(), cl.Node(victim).Name())
			}
			for len(got) < 2 {
				r, ok := root.Failures().Recv()
				if !ok {
					t.Error("failure stream closed early")
					return
				}
				got, at = append(got, r.Rank), append(at, sim.Now())
			}
		})
		sim.Run()
		if len(got) != 2 || got[0] != 1 || got[1] != 2 {
			t.Fatalf("run %d: reported ranks %v, want [1 2]", run, got)
		}
		if at[0] != at[1] {
			t.Fatalf("run %d: reports at %v: the rig no longer times both children out in one tick", run, at)
		}
	}
}

// TestReportPrecedesSameInstantBeat pins the order of the tick. Rank 2
// declares its silent child 6 dead in the same tick that sends its own
// beat, so a report and a beat leave on one link at one instant and the
// root's serial reader charges whichever is second perMsgCost more. The
// report goes first: every run sees one detection latency, and when the
// root hears of the loss rank 2's beat of that tick is still behind the
// report — the last one handled is a whole period old. (When the two were
// timers of two goroutines the host picked the order: in this rig, the
// other one in 0.15-0.55% of simulations at GOMAXPROCS 2-8, hence 1000.)
func TestReportPrecedesSameInstantBeat(t *testing.T) {
	period := 100 * time.Millisecond
	var first time.Duration
	for run := 0; run < 1000; run++ {
		sim, cl, rootCh := healthRigAt(t, 7, 2, period, 3, staggered)
		var latency, beatAge time.Duration
		sim.Go("driver", func() {
			root, ok := rootCh.Recv()
			if !ok {
				t.Error("no root monitor")
				return
			}
			defer root.Stop()
			sim.Sleep(1 * time.Second)
			dropAt := sim.Now()
			cl.Net().DropLink(cl.Node(2).Name(), cl.Node(6).Name())
			if r, ok := root.Failures().Recv(); !ok || r.Rank != 6 {
				t.Errorf("report %+v, %v; want rank 6", r, ok)
				return
			}
			latency = sim.Now() - dropAt
			for _, k := range root.kids {
				if k.rank == 2 {
					beatAge = sim.Now() - k.last
				}
			}
		})
		sim.Run()
		if run == 0 {
			first = latency
		}
		if latency == 0 || latency != first {
			t.Fatalf("run %d: detection latency %v, run 0 saw %v", run, latency, first)
		}
		if beatAge < period {
			t.Fatalf("run %d: rank 2's last handled beat is %v old at the report: the beat went first", run, beatAge)
		}
	}
}

// TestMonitorParksNoGoroutine: the monitor is scheduler state at every kind
// of rank — a root, interior ranks 1 and 2, leaves 3 to 6. Each starts at
// an instant of its own (staggered), so anything spawned across the call
// is that monitor's.
func TestMonitorParksNoGoroutine(t *testing.T) {
	period := 100 * time.Millisecond
	starting := false
	sim, _, rootCh := healthRigAt(t, 7, 2, period, 3, func(p *cluster.Proc, rank int, start func() (*Monitor, error)) (*Monitor, error) {
		return staggered(p, rank, func() (*Monitor, error) {
			live := p.Sim().Live()
			starting = true
			m, err := start()
			starting = false
			if got := p.Sim().Live(); got != live {
				t.Errorf("rank %d: %d goroutines live after StartOnLinks, %d before", rank, got, live)
			}
			return m, err
		})
	})
	sim.SetSpawnObserver(func(name string) {
		if starting {
			t.Errorf("StartOnLinks spawned %s", name)
		}
	})
	sim.Go("driver", func() {
		root, ok := rootCh.Recv()
		if !ok {
			t.Error("no root monitor")
			return
		}
		sim.Sleep(5 * period) // beats flow, ticks fire
		root.Stop()
	})
	sim.Run()
}
