package iccl

import (
	"errors"
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
	"launchmon/internal/vtime"
)

// Event-driven bootstrap regressions: the seed stream must spawn no
// goroutine at any rank, and the join deadline must turn a child that dies
// before dialing its parent into a prompt wrapped ErrBootstrap instead of
// a parked-forever accept.

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

// scriptedSeed returns a root seed source that emits frames from one
// scheduler callback at the instant it is subscribed.
func scriptedSeed(sim *vtime.Sim, frames []coll.Frame) SeedSource {
	return func(emit func(coll.Frame, error) bool) {
		sim.After(0, func() {
			for _, f := range frames {
				if emit(f, nil) {
					return
				}
			}
		})
	}
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

// TestBootstrapJoinDeadlineSurfacesDeadSubtree kills a daemon before it
// ever dials its parent (here: it simply never starts) and checks the
// join deadline converts the would-be parked-forever accept into a
// wrapped ErrBootstrap that cascades up the chain within the deadline
// budget — the detection bound a health config of Period×Miss implies.
func TestBootstrapJoinDeadlineSurfacesDeadSubtree(t *testing.T) {
	const (
		n           = 3 // fanout-1 chain: 0 → 1 → 2
		joinTimeout = 60 * time.Millisecond
	)
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	nodelist := make([]string, n)
	for i := range nodelist {
		nodelist[i] = cl.Node(i).Name()
	}
	errs := make([]error, n)
	took := make([]time.Duration, n)
	sim.Go("boot", func() {
		for i := 0; i < n-1; i++ { // rank 2 is dead on arrival
			i := i
			if _, err := cl.Node(i).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
				t0 := p.Sim().Now()
				c, err := Bootstrap(p, Config{
					Rank: i, Size: n, Fanout: 1, Nodelist: nodelist, Port: 50005,
					JoinTimeout: joinTimeout,
				})
				took[i] = p.Sim().Now() - t0
				if err == nil {
					c.Close()
				}
				errs[i] = err
			}}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	sim.Run()
	for i := 0; i < n-1; i++ {
		if errs[i] == nil {
			t.Fatalf("rank %d bootstrap succeeded with a dead subtree", i)
		}
		if !errors.Is(errs[i], ErrBootstrap) {
			t.Errorf("rank %d error does not wrap ErrBootstrap: %v", i, errs[i])
		}
		// Rank 1 times out its accept after one deadline; rank 0 sees the
		// cascading link close almost immediately after. Twice the deadline
		// bounds both with room for dial/fork costs.
		if took[i] > 2*joinTimeout {
			t.Errorf("rank %d took %v to fail, budget %v", i, took[i], 2*joinTimeout)
		}
	}
}

// TestKilledDaemonStopsRedialing: a daemon whose node is killed while its
// parent is not yet listening leaves the dial loop at its next attempt —
// within one DialRetry, with a wrapped ErrBootstrap — where its goroutine
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
	if !errors.Is(bootErr, ErrBootstrap) {
		t.Errorf("killed daemon's bootstrap returned %v, want a wrapped ErrBootstrap", bootErr)
	}
}
