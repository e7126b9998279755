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
	"launchmon/internal/proctab"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// TestFormationParksOncePerRank is the guard of "a daemon parks once from
// its join to its ready": inside Bootstrap, and inside a cut-through record
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
					c, err = bootSeeded(p, cfg, scriptedSeed(sim, frames), rt, func(coll.Frame, proctab.Chunk) error { return nil }, nil)
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

// TestMalformedBootstrapFrameFailsTheParent: a child whose join or ready is
// not one — another opcode, a frame shorter than its value, or a status
// frame — fails its parent's bootstrap. The parent is the root of a
// three-rank flat tree; rank 1 is a daemon, and rank 2 speaks raw frames and
// keeps its link up. A malformed frame is pinned on rank 2, a status frame's
// failure comes through as it was relayed.
func TestMalformedBootstrapFrameFailsTheParent(t *testing.T) {
	const port = 50010
	join := lmonp.AppendUint32(lmonp.AppendUint32(nil, opJoin), 2)
	status := lmonp.AppendString(lmonp.AppendString(lmonp.AppendUint32(lmonp.AppendUint32(nil, opStatus), 2), "init"), "seed check failed")
	for _, tc := range []struct {
		name   string
		frames [][]byte // rank 2's, in order
		want   string   // what the root's error reads behind errBootstrap's text
	}{
		{"join of another opcode", [][]byte{lmonp.AppendUint32(lmonp.AppendUint32(nil, opReady), 1)}, "rank 2: iccl: protocol violation: got op 2 want 1"},
		{"join without its rank", [][]byte{lmonp.AppendUint32(nil, opJoin)}, "rank 2: iccl: protocol violation: join frame of 4 B"},
		{"status for a join", [][]byte{status}, "rank 2 (init): seed check failed"},
		{"ready of another opcode", [][]byte{join, join}, "rank 2: iccl: protocol violation: got op 1 want 2"},
		{"ready without its count", [][]byte{join, lmonp.AppendUint32(nil, opReady)}, "rank 2: iccl: protocol violation: ready frame of 4 B"},
		{"status for a ready", [][]byte{join, status}, "rank 2 (init): seed check failed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := vtime.New()
			cl, err := cluster.New(sim, cluster.Options{Nodes: 3})
			if err != nil {
				t.Fatal(err)
			}
			nodelist := []string{cl.Node(0).Name(), cl.Node(1).Name(), cl.Node(2).Name()}
			var rootErr, childErr error
			sim.Go("boot", func() {
				for rank := 0; rank < 2; rank++ {
					rank := rank
					if _, err := cl.Node(rank).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
						c, err := Bootstrap(p, Config{Rank: rank, Size: 3, Nodelist: nodelist, Port: port})
						if rank == 0 {
							rootErr = err
						} else if childErr = err; err == nil {
							c.Close()
						}
					}}); err != nil {
						t.Error(err)
						return
					}
				}
				if _, err := cl.Node(2).SpawnProc(cluster.Spec{Exe: "raw", Main: func(p *cluster.Proc) {
					sim.Sleep(time.Millisecond) // the root listens
					conn, err := p.Host().Dial(simnet.Addr{Host: nodelist[0], Port: port})
					if err != nil {
						t.Error(err)
						return
					}
					for _, frame := range tc.frames {
						if err := lmonp.WriteFrame(conn, frame); err != nil {
							t.Error(err)
						}
					}
					sim.Sleep(time.Second) // the link stays up
					conn.Close()
				}}); err != nil {
					t.Error(err)
				}
			})
			sim.Run()
			if want := "iccl: bootstrap failed: " + tc.want; !errors.Is(rootErr, errBootstrap) || !strings.HasPrefix(fmt.Sprint(rootErr), want) {
				t.Errorf("root's bootstrap returned %v, want a wrapped errBootstrap reading %q", rootErr, want)
			}
			if childErr != nil {
				t.Errorf("rank 1's bootstrap returned %v", childErr)
			}
		})
	}
}
