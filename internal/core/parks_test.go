package core

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/rm"
)

// TestSessionCollectivesParkOnce is the FE hop's park guard on a session of
// seven daemons (fanout 2, 4 KiB chunks): the master daemon's goroutine
// waits once for a BroadcastTag of ten chunks whose frames reach it after it
// has entered, and the front end's caller waits once for a Gather and once
// for a ReduceTag whose many frames reach it after it has called — the
// frames are pushed into the root's operation, or handed to the front end's
// record, where they arrive. Each count is Sim.Parks() around the one call,
// with every other goroutine parked before it begins: the daemons run each
// operation on a goroutine of its own that enters ahead of the measured
// call and ends with its operation, and the front end's broadcast is sent
// from a scheduler callback.
func TestSessionCollectivesParkOnce(t *testing.T) {
	const n, chunk = 7, 4 << 10
	const bcastAt, gatherAt, reduceAt, endAt = 5 * time.Second, 6 * time.Second, 7 * time.Second, 8 * time.Second
	bTag, rTag := coll.MinUserTag, coll.MinUserTag+1 // the session's first two AllocTag values
	payload := bytes.Repeat([]byte("ten-chunks"), 4<<10)
	contrib := func(rank int) []byte { return bytes.Repeat([]byte{byte(rank)}, chunk) }

	sim, cl, _ := rig(t, n)
	var masterParks uint64
	errs := make(chan error, 3*n)
	cl.Register("parks_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			t.Errorf("BEInit: %v", err)
			return
		}
		pl, rank := be.Collective(), be.Rank()
		at := func(when time.Duration, op func() error) {
			sim.Go("parks-op", func() {
				sim.Sleep(when - sim.Now())
				errs <- op()
			})
		}
		entry := bcastAt
		if be.AmIMaster() {
			entry += 10 * time.Millisecond // after every other rank, before the front end sends
		}
		at(entry, func() error {
			before := sim.Parks()
			got, err := pl.BroadcastTag(bTag)
			if be.AmIMaster() {
				masterParks = sim.Parks() - before
			}
			if err == nil && !bytes.Equal(got, payload) {
				t.Errorf("rank %d: broadcast delivered %d bytes", rank, len(got))
			}
			return err
		})
		at(gatherAt, func() error { return pl.Gather(contrib(rank)) })
		at(reduceAt, func() error { return pl.ReduceTag(rTag, contrib(rank), "concat") })
		sim.Sleep(endAt - sim.Now())
		be.Finalize()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		sess, err := LaunchAndSpawn(p, Options{
			Job:            rm.JobSpec{Exe: "app", Nodes: n, TasksPerNode: 1},
			Daemon:         rm.DaemonSpec{Exe: "parks_be"},
			ICCLFanout:     2,
			CollChunkBytes: chunk,
		})
		if err != nil {
			t.Error(err)
			return
		}
		defer sess.Kill()
		if now := sim.Now(); now >= bcastAt {
			t.Errorf("launch ended at %v, after the first operation's instant", now)
			return
		}
		if sess.AllocTag() != bTag || sess.AllocTag() != rTag {
			t.Error("AllocTag does not hand out the tags the daemons use")
			return
		}
		sim.After(bcastAt+20*time.Millisecond-sim.Now(), func() {
			if err := sess.BroadcastTag(bTag, payload); err != nil {
				t.Errorf("BroadcastTag: %v", err)
			}
		})
		call := func(name string, at time.Duration, op func() (int, error)) {
			sim.Sleep(at + time.Microsecond - sim.Now()) // the daemons have entered
			before := sim.Parks()
			got, err := op()
			if parks := sim.Parks() - before; err != nil || got != n*chunk || parks != 1 {
				t.Errorf("%s: %d bytes, %v; the caller parked %d times, want once", name, got, err, parks)
			}
		}
		call("Gather", gatherAt, func() (int, error) {
			all, err := sess.Gather()
			return len(bytes.Join(all, nil)), err
		})
		call("ReduceTag", reduceAt, func() (int, error) {
			got, err := sess.ReduceTag(rTag)
			return len(got), err
		})
		sim.Sleep(endAt + time.Second - sim.Now())
	})
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if masterParks != 1 {
		t.Errorf("the master daemon parked %d times in a %d-chunk BroadcastTag, want once", masterParks, len(payload)/chunk)
	}
}

// TestLaunchParksPerDaemon is the launch's park guard: from the first
// daemon's spawn to the front end's ready, a 1024-daemon fanout-64 BE launch
// — and an MW launch of as many daemons behind it — parks at most 1.05
// times a daemon, every goroutine of the simulation counted: a daemon waits
// once on its Forming record from its join to its ready (the master's
// front-end handshake, and the front end's own waits, are the rest). The
// daemons return from init at once, so no tool body's wait is counted. A
// third launch of BE daemons that call Finalize once ready, with no plane
// operation, parks at most 2.05 times a daemon from the first spawn to the
// last daemon's Finalize return: its barrier is one walk the daemon waits
// on once.
func TestLaunchParksPerDaemon(t *testing.T) {
	t.Run("Finalize", testFinalizeParksPerDaemon)
	const k, fanout, bound = 1024, 64, 1.05
	sim, cl, _ := rig(t, 2*k)
	var spawned uint64 // Sim.Parks() at the fabric's first daemon spawn
	for _, exe := range []string{"lp_be", "lp_mw"} {
		mw := exe == "lp_mw"
		cl.Register(exe, func(p *cluster.Proc) {
			if spawned == 0 {
				spawned = sim.Parks()
			}
			var err error
			if mw {
				_, err = MWInit(p)
			} else {
				_, err = BEInit(p)
			}
			if err != nil {
				t.Errorf("%s init: %v", exe, err)
			}
		})
	}
	runFE(t, sim, cl, func(p *cluster.Proc) {
		check := func(fabric string) {
			if per := float64(sim.Parks()-spawned) / k; per > bound {
				t.Errorf("%s launch of %d daemons parked %.3f times a daemon from spawn to ready, want at most %.2f", fabric, k, per, bound)
			} else {
				t.Logf("%s launch: %.3f parks a daemon from spawn to ready", fabric, per)
			}
			spawned = 0
		}
		s, err := LaunchAndSpawn(p, Options{
			Job:        rm.JobSpec{Exe: "app", Nodes: k, TasksPerNode: 1},
			Daemon:     rm.DaemonSpec{Exe: "lp_be"},
			ICCLFanout: fanout,
		})
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Kill()
		check("BE")
		if _, err := s.LaunchMW(MWOptions{Nodes: k, Daemon: rm.DaemonSpec{Exe: "lp_mw"}, ICCLFanout: fanout}); err != nil {
			t.Error(err)
			return
		}
		check("MW")
	})
}

// testFinalizeParksPerDaemon is TestLaunchParksPerDaemon's Finalize cell.
func testFinalizeParksPerDaemon(t *testing.T) {
	const k, fanout, bound = 1024, 64, 2.05
	sim, cl, _ := rig(t, k)
	var spawned, finalized uint64 // Sim.Parks() at the first daemon's spawn, at the last one's Finalize return
	var done atomic.Int32
	cl.Register("lp_fin", func(p *cluster.Proc) {
		if done.Add(1) == 1 {
			spawned = sim.Parks()
		}
		be, err := BEInit(p)
		if err == nil {
			err = be.Finalize()
		}
		if err != nil {
			t.Errorf("rank on %s: %v", p.Node().Name(), err)
		}
		if done.Add(1) == 2*k {
			finalized = sim.Parks()
		}
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:        rm.JobSpec{Exe: "app", Nodes: k, TasksPerNode: 1},
			Daemon:     rm.DaemonSpec{Exe: "lp_fin"},
			ICCLFanout: fanout,
		})
		if err != nil {
			t.Error(err)
			return
		}
		sim.Sleep(10 * time.Second) // every daemon has finalized
		s.Kill()
	})
	if finalized == 0 {
		t.Fatalf("%d of %d daemons returned from Finalize", int(done.Load())-k, k)
	}
	if per := float64(finalized-spawned) / k; per > bound {
		t.Errorf("%d daemons parked %.3f times a daemon from spawn to Finalize, want at most %.2f", k, per, bound)
	} else {
		t.Logf("%.3f parks a daemon from spawn to Finalize", per)
	}
}
