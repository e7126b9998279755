package iccl

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/proctab"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// seedCluster is an n-node cluster on sim for seedRig.
func seedCluster(tb testing.TB, sim *vtime.Sim, n int) *cluster.Cluster {
	tb.Helper()
	cl, err := cluster.New(sim, cluster.Options{Nodes: n})
	if err != nil {
		tb.Fatal(err)
	}
	return cl
}

// seedRig bootstraps one daemon per node of cl with BootstrapSeedRouted —
// the root fed by frames, every rank routing with rt (nil relays verbatim)
// — has each drain its local stream and Wait, and runs fn on the formed
// communicator with the frames the rank received, the End frame last.
func seedRig(tb testing.TB, cl *cluster.Cluster, fanout int, frames []coll.Frame, rt *SeedRouter, fn func(c *Comm, got []coll.Frame) error) {
	tb.Helper()
	sim, n := cl.Sim(), cl.NumNodes()
	nodelist := make([]string, n)
	for i := range nodelist {
		nodelist[i] = cl.Node(i).Name()
	}
	errs := make([]error, n)
	main := func(i int, p *cluster.Proc) error {
		var src SeedSource
		if i == 0 {
			src = scriptedSeed(sim, frames)
		}
		c, seed, err := BootstrapSeedRouted(p, Config{
			Rank: i, Size: n, Fanout: fanout, Nodelist: nodelist, Port: 50002,
		}, src, rt)
		if err != nil {
			return err
		}
		defer c.Close()
		var got []coll.Frame
		for len(got) == 0 || !got[len(got)-1].End {
			f, err := seed.Next()
			if err != nil {
				return err
			}
			got = append(got, f)
		}
		if err := seed.Wait(); err != nil {
			return err
		}
		return fn(c, got)
	}
	sim.Go("boot", func() {
		for i := 0; i < n; i++ {
			i := i
			if _, err := cl.Node(i).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
				errs[i] = main(i, p)
			}}); err != nil {
				tb.Error(err)
				return
			}
		}
	})
	sim.Run()
	for i, err := range errs {
		if err != nil {
			tb.Fatalf("daemon %d: %v", i, err)
		}
	}
}

// routedSeed builds the root's stream for a table of tasksPerNode tasks on
// each of n nodes, named as cluster.New names them — FEData as frame 0,
// the table in chunkBytes chunks, an End marker whose total is the entry
// count the router checks — and the router that slices it by rank.
func routedSeed(n, tasksPerNode, chunkBytes int) ([]coll.Frame, *SeedRouter, proctab.Table) {
	var tab proctab.Table
	rankOf := map[string]int{}
	for rk := 0; rk < n; rk++ {
		host := fmt.Sprintf("node%d", rk)
		rankOf[host] = rk
		for j := 0; j < tasksPerNode; j++ {
			tab = append(tab, proctab.ProcDesc{Host: host, Exe: "app", Pid: 100 + j, Rank: tasksPerNode*rk + j})
		}
	}
	frames := seedFrames(append([][]byte{[]byte("fedata")}, tab.EncodeChunks(chunkBytes)...))
	frames[len(frames)-1].Total = uint64(len(tab))
	return frames, &SeedRouter{
		RankOf:     func(host string) (int, bool) { rk, ok := rankOf[host]; return rk, ok },
		ChunkBytes: chunkBytes,
	}, tab
}

// TestSeedStreamDeliversEverywhere checks every rank receives the exact
// frame sequence across tree shapes, and that the communicator is fully
// usable afterwards (the seed must have drained off every link).
func TestSeedStreamDeliversEverywhere(t *testing.T) {
	bodies := [][]byte{[]byte("fedata"), []byte("chunk-0"), []byte("chunk-1"), {}, []byte("chunk-3")}
	for _, tc := range []struct{ n, fanout int }{
		{1, 2}, {2, 2}, {5, 4}, {7, 2}, {8, 0 /* flat */}, {13, 3},
	} {
		t.Run(fmt.Sprintf("n%d_f%d", tc.n, tc.fanout), func(t *testing.T) {
			seedRig(t, seedCluster(t, vtime.New(), tc.n), tc.fanout, seedFrames(bodies), nil, func(c *Comm, got []coll.Frame) error {
				if len(got) != len(bodies)+1 {
					return fmt.Errorf("rank %d received %d frames, want %d and the End", c.Rank(), len(got), len(bodies))
				}
				for i := range bodies {
					if !bytes.Equal(got[i].Body, bodies[i]) {
						return fmt.Errorf("rank %d frame %d = %q, want %q", c.Rank(), i, got[i].Body, bodies[i])
					}
				}
				if end := got[len(bodies)]; end.Total != uint64(len(bodies)) {
					return fmt.Errorf("rank %d end total %d, received %d frames", c.Rank(), end.Total, len(bodies))
				}
				// The tree is immediately usable for collectives.
				return c.Barrier()
			})
		})
	}
}

// TestSeedMidStreamFaultAtForwardingRank breaks the stream a forwarding
// rank is fed from after frame 1, before the End: an interior rank's
// parent link (the root's node dies) and the root's own source (its FE
// connection). Rank 4 starts late, so its parent, rank 1, is still
// accepting children when the fault lands. A rank whose bootstrap had
// completed reports the break from Next and again from Wait — which
// returns, so the forwarders finished; rank 1's bootstrap surfaces the
// broken tree when it reports ready up a dead link; its subtree sees the
// link it closes; and every goroutine ends.
func TestSeedMidStreamFaultAtForwardingRank(t *testing.T) {
	const n, fanout = 7, 2 // 0 → 1, 2 → 3 … 6
	frames := seedFrames([][]byte{[]byte("fedata"), []byte("chunk-0"), []byte("chunk-1")})
	for _, tc := range []struct {
		name     string
		rootDies bool // the fault is the root's node dying, else its source breaking
	}{{"interior_parent_link", true}, {"root_source", false}} {
		t.Run(tc.name, func(t *testing.T) {
			sim := vtime.New()
			cl, err := cluster.New(sim, cluster.Options{Nodes: n})
			if err != nil {
				t.Fatal(err)
			}
			nodelist := make([]string, n)
			for i := range nodelist {
				nodelist[i] = cl.Node(i).Name()
			}
			type result struct {
				got              int
				boot, next, wait error
			}
			res := make([]result, n)
			spawn := func(i int) {
				if _, err := cl.Node(i).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
					var src SeedSource
					if i == 0 {
						src = func(emit func(coll.Frame, error) bool) {
							sim.After(0, func() {
								emit(frames[0], nil)
								emit(frames[1], nil)
							})
							sim.After(time.Second, func() {
								if tc.rootDies {
									cl.KillNode(0)
								} else {
									emit(coll.Frame{}, io.ErrUnexpectedEOF)
								}
							})
						}
					}
					r := &res[i]
					c, seed, err := BootstrapSeedRouted(p, Config{
						Rank: i, Size: n, Fanout: fanout, Nodelist: nodelist, Port: 50006,
					}, src, nil)
					if err != nil {
						r.boot = err
						return
					}
					defer c.Close()
					for r.next == nil {
						if _, r.next = seed.Next(); r.next == nil {
							r.got++
						}
					}
					r.wait = seed.Wait()
				}}); err != nil {
					t.Error(err)
				}
			}
			const late = 4
			sim.Go("boot", func() {
				for i := 0; i < n; i++ {
					if i != late {
						spawn(i)
					}
				}
				sim.Sleep(2 * time.Second)
				spawn(late)
			})
			live := -1
			sim.After(3*time.Second, func() { live = sim.Live() })
			sim.Run()

			for i, r := range res {
				switch {
				case tc.rootDies && i == 0: // died with its node
				case tc.rootDies && i == 1:
					if !errors.Is(r.boot, ErrBootstrap) {
						t.Errorf("rank 1 bootstrap under a dead parent link: %v, want a wrapped ErrBootstrap", r.boot)
					}
				default:
					prefix := fmt.Sprintf("iccl: seed stream at rank %d: ", i)
					if r.boot != nil || r.got != 2 || r.next == nil || !strings.HasPrefix(r.next.Error(), prefix) {
						t.Errorf("rank %d: bootstrap %v, %d frames, then %v; want 2 frames, then %q…", i, r.boot, r.got, r.next, prefix)
					}
					if r.wait != r.next {
						t.Errorf("rank %d: Wait reports %v, Next %v", i, r.wait, r.next)
					}
				}
			}
			witness, cause := 0, io.ErrUnexpectedEOF // the rank the fault reached first
			if tc.rootDies {
				witness, cause = 2, simnet.ErrPeerDead
			}
			if !errors.Is(res[witness].next, cause) {
				t.Errorf("rank %d reports %v, which does not wrap %v", witness, res[witness].next, cause)
			}
			if live != 0 {
				t.Errorf("%d goroutines still alive a second after the last rank started", live)
			}
		})
	}
}

// TestSeedSourceOnlyAtRoot pins the configuration contract.
func TestSeedSourceOnlyAtRoot(t *testing.T) {
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim.Go("boot", func() {
		cl.Node(0).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
			if _, _, err := BootstrapSeedRouted(p, Config{
				Rank: 0, Size: 1, Nodelist: []string{cl.Node(0).Name()}, Port: 50003,
			}, nil, nil); err == nil {
				t.Error("rank 0 without a seed source accepted")
			}
			if _, _, err := BootstrapSeedRouted(p, Config{
				Rank: 1, Size: 2, Nodelist: []string{cl.Node(0).Name(), "x"}, Port: 50003,
			}, func(func(coll.Frame, error) bool) {}, nil); err == nil {
				t.Error("rank 1 with a seed source accepted")
			}
		}})
	})
	sim.Run()
}
