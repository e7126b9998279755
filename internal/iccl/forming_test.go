package iccl

import (
	"fmt"
	"testing"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/proctab"
	"launchmon/internal/vtime"
)

// TestFormationParksOncePerRank is the guard of "a daemon parks once from
// its join to its ready": inside Bootstrap, and inside BootstrapSeedRouted
// with the seed stream, every rank's goroutine parks exactly once at fanout
// 8 and flat — the sibling skew, the dial, the accepts, the charged reads of
// the ready wave and the seed's end are its Forming record's timers and
// link wakes. Each rank's call returns later than it began, so it parked,
// and the calls park n times in all over a run whose rank mains otherwise
// park as often as mains that make no call.
func TestFormationParksOncePerRank(t *testing.T) {
	for _, tc := range []struct {
		n, fanout int
		seeded    bool
	}{{73, 8, false}, {33, 0, false}, {73, 8, true}, {33, 0, true}} {
		name := fmt.Sprintf("fanout%d/K=%d", tc.fanout, tc.n)
		if tc.fanout == 0 {
			name = fmt.Sprintf("flat/K=%d", tc.n)
		}
		if tc.seeded {
			name += "/seed"
		}
		t.Run(name, func(t *testing.T) {
			idle := formationParks(t, tc.n, tc.fanout, tc.seeded, false)
			formed := formationParks(t, tc.n, tc.fanout, tc.seeded, true)
			if parks := formed - idle; parks != uint64(tc.n) {
				t.Errorf("%d ranks parked %d times forming, want once a rank", tc.n, parks)
			}
		})
	}
}

// formationParks spawns one daemon per node of an n-node cluster, each
// forming its rank of the tree when form is set (returning at once when it
// is not), and returns Sim.Parks() over the whole run.
func formationParks(t *testing.T, n, fanout int, seeded, form bool) uint64 {
	sim := vtime.New()
	cl := seedCluster(t, sim, n)
	nodelist := make([]string, n)
	for i := range nodelist {
		nodelist[i] = cl.Node(i).Name()
	}
	frames, rt, _ := routedSeed(n, 2, 96)
	sim.Go("boot", func() {
		for i := 0; i < n; i++ {
			i := i
			if _, err := cl.Node(i).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
				if !form {
					return
				}
				cfg := Config{Rank: i, Size: n, Fanout: fanout, Nodelist: nodelist, Port: 50009}
				start := sim.Now()
				var c *Comm
				var err error
				if seeded {
					var src SeedSource
					if i == 0 {
						src = scriptedSeed(sim, frames)
					}
					c, err = BootstrapSeedRouted(p, cfg, src, rt, func(coll.Frame, proctab.Chunk) error { return nil }, nil)
				} else {
					c, err = Bootstrap(p, cfg)
				}
				switch {
				case err != nil:
					t.Errorf("rank %d: %v", i, err)
				case sim.Now() == start:
					t.Errorf("rank %d formed without waiting", i)
				default:
					c.Close()
				}
			}}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	sim.Run()
	return sim.Parks()
}
