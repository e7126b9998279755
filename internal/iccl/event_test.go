package iccl

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
	"launchmon/internal/vtime"
)

// Event-driven bootstrap regressions: the lazy seed plumbing must spawn
// goroutines only at ranks that actually forward (never at leaves), and
// the join deadline must turn a child that dies before dialing its parent
// into a prompt wrapped ErrBootstrap instead of a parked-forever accept.

// scriptedSeed returns a root seed source feeding the given bodies
// (frame 0 is the FEData preamble) followed by a digest-carrying End.
func scriptedSeed(bodies [][]byte) SeedSource {
	digest := lmonp.SumInit
	for _, b := range bodies[1:] {
		digest = lmonp.FoldSum(digest, lmonp.Sum64(b))
	}
	idx := 0
	return func() (coll.Frame, error) {
		if idx < len(bodies) {
			f := coll.Frame{
				H:    coll.Header{Op: coll.OpSeed, Index: uint32(idx)},
				Body: bodies[idx],
				Sum:  lmonp.Sum64(bodies[idx]),
			}
			idx++
			return f, nil
		}
		return coll.Frame{
			H:     coll.Header{Op: coll.OpSeed, Index: uint32(idx)},
			End:   true,
			Total: uint64(len(bodies)),
			Sum:   digest,
		}, nil
	}
}

// TestSeedGoroutinesOnlyAtForwardingRanks pins the lazy-spawn contract of
// BootstrapSeedRouted: seed pumps exist only at ranks that must forward while
// their own bootstrap still blocks (the root and interior ranks); child
// forwarders are outbox callbacks, not goroutines; and leaves — the
// overwhelming majority at scale — spawn nothing at all.
func TestSeedGoroutinesOnlyAtForwardingRanks(t *testing.T) {
	const n, fanout = 13, 3
	sim := vtime.New()
	var spawned []string
	sim.SetSpawnObserver(func(name string) {
		if strings.HasPrefix(name, "iccl-seed-") {
			spawned = append(spawned, name)
		}
	})
	cl, err := cluster.New(sim, cluster.Options{Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	nodelist := make([]string, n)
	for i := range nodelist {
		nodelist[i] = cl.Node(i).Name()
	}
	bodies := [][]byte{[]byte("fedata"), []byte("chunk-0"), []byte("chunk-1")}
	errs := make([]error, n)
	sim.Go("boot", func() {
		for i := 0; i < n; i++ {
			i := i
			if _, err := cl.Node(i).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
				var src SeedSource
				if i == 0 {
					src = scriptedSeed(bodies)
				}
				c, seed, err := BootstrapSeedRouted(p, Config{
					Rank: i, Size: n, Fanout: fanout, Nodelist: nodelist, Port: 50004,
				}, src, nil)
				if err != nil {
					errs[i] = err
					return
				}
				defer c.Close()
				for {
					f, err := seed.Next()
					if err != nil {
						errs[i] = err
						return
					}
					if f.End {
						break
					}
				}
				errs[i] = seed.Wait()
			}}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	sim.Run()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
	}

	pumps := 0
	for _, name := range spawned {
		var rank int
		if !strings.HasPrefix(name, "iccl-seed-pump-") {
			t.Errorf("unexpected seed goroutine %q (forwarding is outbox callbacks, not goroutines)", name)
			continue
		}
		if _, err := fmt.Sscanf(name, "iccl-seed-pump-%d", &rank); err != nil {
			t.Fatalf("unparseable pump name %q", name)
		}
		if rank != 0 && len(Children(rank, n, fanout)) == 0 {
			t.Errorf("leaf rank %d spawned a seed pump", rank)
		}
		pumps++
	}
	wantPumps := 0
	for r := 0; r < n; r++ {
		if r == 0 || len(Children(r, n, fanout)) > 0 {
			wantPumps++
		}
	}
	if pumps != wantPumps {
		t.Errorf("%d seed pumps spawned, want %d (root + interior ranks)", pumps, wantPumps)
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
