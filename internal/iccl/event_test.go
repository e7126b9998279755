package iccl

import (
	"errors"
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
	"launchmon/internal/proctab"
	"launchmon/internal/vtime"
)

// Event-driven bootstrap regressions: the seed stream must spawn no
// goroutine at any rank, and a daemon must stop dialing a parent it can no
// longer reach.

// seedFrames renders bodies (frame 0 is the FEData preamble) as the
// root's stream, closed by a digest-carrying End whose total, the entry
// count a router checks, is left to the caller: 0 fits a table-less stream.
func seedFrames(bodies [][]byte) []coll.Frame {
	digest := lmonp.SumInit
	frames := make([]coll.Frame, 0, len(bodies)+1)
	for i, b := range bodies {
		if i > 0 {
			digest = lmonp.FoldSum(digest, lmonp.Sum64(b))
		}
		frames = append(frames, coll.Frame{
			H: coll.Header{Op: coll.OpSeed, Index: uint32(i)}, Body: b, Sum: lmonp.Sum64(b),
		})
	}
	return append(frames, coll.Frame{
		H:   coll.Header{Op: coll.OpSeed, Index: uint32(len(bodies))},
		End: true, Sum: digest,
	})
}

// scriptedSeed subscribes the root's record to frames, fed from one
// scheduler callback at the instant it is subscribed.
func scriptedSeed(sim *vtime.Sim, frames []coll.Frame) func(*Forming) {
	return func(f *Forming) {
		sim.After(0, func() {
			for _, fr := range frames {
				f.Feed(fr)
			}
		})
	}
}

// bootSeeded is a cut-through rank's bootstrap as its daemon makes it: the
// record, subscribed by feed before it runs when it is rank 0's, run.
func bootSeeded(p *cluster.Proc, cfg Config, feed func(*Forming), rt *SeedRouter, sink func(coll.Frame, proctab.Chunk) error, r Ready) (*Comm, error) {
	f := NewForming(p, cfg, rt, sink, r)
	if cfg.Rank == 0 && feed != nil {
		feed(f)
	}
	return f.Run(nil)
}

// TestSeedSpawnsNoGoroutine: the seed stream is scheduler state at every
// rank of a 3-level tree — the root's source, an interior rank's routing,
// a leaf's sink, with a table or without one — so nothing named iccl-* is
// ever spawned: the daemon's main is the one goroutine it holds during
// launch.
func TestSeedSpawnsNoGoroutine(t *testing.T) {
	frames, rt, _ := routedSeed(wireN, 2, 96)
	for _, tc := range []struct {
		name   string
		frames []coll.Frame
		rt     *SeedRouter
	}{{"table-less", seedFrames([][]byte{[]byte("fedata")}), TablelessRoute}, {"routed", frames, rt}} {
		t.Run(tc.name, func(t *testing.T) {
			sim := vtime.New()
			spawns := 0
			sim.SetSpawnObserver(func(name string) {
				if strings.HasPrefix(name, "iccl-") {
					t.Errorf("the seed stream spawned goroutine %q", name)
				}
				spawns++
			})
			seedRig(t, seedCluster(t, sim, wireN), wireFanout, tc.frames, tc.rt, func(*Comm, []coll.Frame) error { return nil })
			if spawns < wireN {
				t.Fatalf("the spawn observer saw %d goroutines start, fewer than the %d daemons", spawns, wireN)
			}
		})
	}
}

// TestKilledDaemonStopsRedialing: a daemon whose node is killed while its
// parent is not yet listening leaves the dial loop at its next attempt —
// within one DialRetry, with a wrapped errBootstrap — where its goroutine
// used to retry for the rest of the 30 s window.
func TestKilledDaemonStopsRedialing(t *testing.T) {
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	nodelist := []string{cl.Node(0).Name(), cl.Node(1).Name()}
	var bootErr error
	sim.Go("boot", func() {
		pre := sim.Live()
		if _, err := cl.Node(1).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
			_, bootErr = Bootstrap(p, Config{Rank: 1, Size: 2, Fanout: 1, Nodelist: nodelist, Port: 50007})
		}}); err != nil {
			t.Error(err)
			return
		}
		sim.Sleep(2*DialRetry + DialRetry/2) // between two attempts
		if got := sim.Live(); got != pre+1 {
			t.Errorf("Live() = %d with the daemon dialing, want %d", got, pre+1)
		}
		cl.KillNode(1)
		sim.Sleep(DialRetry)
		if got := sim.Live(); got != pre {
			t.Errorf("Live() = %d one DialRetry after the kill, %d before the spawn", got, pre)
		}
	})
	sim.Run()
	if !errors.Is(bootErr, errBootstrap) {
		t.Errorf("killed daemon's bootstrap returned %v, want a wrapped ErrBootstrap", bootErr)
	}
}

// TestDeadParentStopsRedialing: a daemon whose parent's node dies while
// the parent is not yet listening gives up at its next attempt — a dead
// host stays dead — instead of redialing for the whole 30 s window; a
// parent that is merely not listening yet is still retried.
func TestDeadParentStopsRedialing(t *testing.T) {
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	nodelist := []string{cl.Node(0).Name(), cl.Node(1).Name()}
	var bootErr error
	var killed, gaveUp time.Duration
	sim.Go("boot", func() {
		if _, err := cl.Node(1).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
			_, bootErr = Bootstrap(p, Config{Rank: 1, Size: 2, Fanout: 1, Nodelist: nodelist, Port: 50008})
			gaveUp = sim.Now()
		}}); err != nil {
			t.Error(err)
			return
		}
		sim.Sleep(3*DialRetry + DialRetry/2) // refused three times
		killed = sim.Now()
		cl.KillNode(0)
	})
	sim.Run()
	if !errors.Is(bootErr, errBootstrap) || !strings.Contains(bootErr.Error(), "dead") {
		t.Errorf("bootstrap under a dead parent returned %v, want a wrapped ErrBootstrap naming the dead host", bootErr)
	}
	if took := gaveUp - killed; took < 0 || took > DialRetry {
		t.Errorf("gave up %v after the parent's node died, want within one DialRetry (%v)", took, DialRetry)
	}
}
