package iccl

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
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

// seedCluster is an n-node cluster on sim for seedRig.
func seedCluster(tb testing.TB, sim *vtime.Sim, n int) *cluster.Cluster {
	tb.Helper()
	cl, err := cluster.New(sim, cluster.Options{Nodes: n})
	if err != nil {
		tb.Fatal(err)
	}
	return cl
}

// seedRig bootstraps one daemon per node of cl with bootSeeded —
// the root fed by frames, every rank routing with rt — has each collect its
// share with a sink and Wait, and runs fn on the formed communicator with
// the frames the rank's sink was handed, the End frame last.
func seedRig(tb testing.TB, cl *cluster.Cluster, fanout int, frames []coll.Frame, rt *SeedRouter, fn func(c *Comm, got []coll.Frame) error) {
	tb.Helper()
	sim, n := cl.Sim(), cl.NumNodes()
	nodelist := make([]string, n)
	for i := range nodelist {
		nodelist[i] = cl.Node(i).Name()
	}
	errs := make([]error, n)
	// A test also checks what the sink is handed beside each frame; a
	// benchmark does not, so that its B/op is the stream's alone.
	check := func(coll.Frame, proctab.Chunk) error { return nil }
	if _, ok := tb.(*testing.T); ok {
		check = sinkContract
	}
	main := func(i int, p *cluster.Proc) error {
		var got []coll.Frame
		c, err := bootSeeded(p, Config{
			Rank: i, Size: n, Fanout: fanout, Nodelist: nodelist, Port: 50002,
		}, scriptedSeed(sim, frames), rt, func(f coll.Frame, c proctab.Chunk) error {
			got = append(got, f)
			return check(f, c)
		}, nil)
		if err != nil {
			return err
		}
		defer c.Close()
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

// sinkContract checks what a seed sink is handed besides the frame: an
// RPDTAB chunk's scan of its body, and the body's sum.
func sinkContract(f coll.Frame, c proctab.Chunk) error {
	if f.End || f.H.Index == 0 {
		return nil
	}
	want, err := proctab.Decode(f.Body)
	if err != nil {
		return err
	}
	if got := c.AppendTo(nil); !slices.Equal(got, want) || f.Sum != lmonp.Sum64(f.Body) {
		return fmt.Errorf("chunk %d handed over as %d entries, sum %#x; its body holds %d, sum %#x",
			f.H.Index, len(got), f.Sum, len(want), lmonp.Sum64(f.Body))
	}
	return nil
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

// TestSeedStreamDeliversEverywhere checks every rank's sink is handed its
// share across tree shapes — the FEData frame, chunks holding exactly the
// rank's own entries, an End whose total counts them, indices contiguous —
// and that the communicator is fully usable afterwards (the seed must have
// drained off every link).
func TestSeedStreamDeliversEverywhere(t *testing.T) {
	const perNode = 3
	for _, tc := range []struct{ n, fanout int }{
		{1, 2}, {2, 2}, {5, 4}, {7, 2}, {8, 0 /* flat */}, {13, 3},
	} {
		t.Run(fmt.Sprintf("n%d_f%d", tc.n, tc.fanout), func(t *testing.T) {
			frames, rt, _ := routedSeed(tc.n, perNode, 96)
			seedRig(t, seedCluster(t, vtime.New(), tc.n), tc.fanout, frames, rt, func(c *Comm, got []coll.Frame) error {
				if len(got) < 2 || !bytes.Equal(got[0].Body, []byte("fedata")) || !got[len(got)-1].End {
					return fmt.Errorf("rank %d was handed %d frames, want FEData first and End last", c.Rank(), len(got))
				}
				host, entries := fmt.Sprintf("node%d", c.Rank()), 0
				for i, f := range got {
					if f.H.Index != uint32(i) {
						return fmt.Errorf("rank %d frame %d has index %d", c.Rank(), i, f.H.Index)
					}
					if i == 0 || f.End {
						continue
					}
					sub, err := proctab.Decode(f.Body)
					if err != nil {
						return err
					}
					for _, d := range sub {
						if d.Host != host {
							return fmt.Errorf("rank %d was handed an entry on %s", c.Rank(), d.Host)
						}
					}
					entries += len(sub)
				}
				if end := got[len(got)-1]; entries != perNode || end.Total != uint64(entries) {
					return fmt.Errorf("rank %d was handed %d entries, end total %d, want %d", c.Rank(), entries, end.Total, perNode)
				}
				// The tree is immediately usable for collectives.
				return c.Barrier()
			})
		})
	}
}

// TestSeedParksOncePerRank: a daemon's main waits on its seed record once.
// The stream — FEData, then several chunks of every rank's slice — starts
// after every rank's tree has formed, while its main waits in its record's
// Run, which returns only after the stream's end; a main
// woken per frame handed over, or once more for the child forwards, parks
// again between the census and the stream's end.
func TestSeedParksOncePerRank(t *testing.T) {
	const n, fanout = 13, 3
	const census, start, end = 400 * time.Millisecond, time.Second, 2 * time.Second
	frames, rt, _ := routedSeed(n, 8, 96)
	sim := vtime.New()
	cl := seedCluster(t, sim, n)
	nodelist := make([]string, n)
	for i := range nodelist {
		nodelist[i] = cl.Node(i).Name()
	}
	errs := make([]error, n)
	handed := make([]int, n)
	var parks uint64
	sim.Go("boot", func() {
		for i := 0; i < n; i++ {
			i := i
			if _, err := cl.Node(i).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
				feed := func(f *Forming) {
					sim.After(start-sim.Now(), func() {
						for _, fr := range frames {
							f.Feed(fr)
						}
					})
				}
				c, err := bootSeeded(p, Config{
					Rank: i, Size: n, Fanout: fanout, Nodelist: nodelist, Port: 50004,
				}, feed, rt, func(coll.Frame, proctab.Chunk) error { handed[i]++; return nil }, nil)
				if err != nil {
					errs[i] = err
					return
				}
				defer c.Close()
				if sim.Now() < start {
					errs[i] = fmt.Errorf("returned at %v, before its stream", sim.Now())
				}
			}}); err != nil {
				t.Error(err)
				return
			}
		}
		sim.Sleep(census - sim.Now())
		parks = sim.Parks()
		sim.Sleep(end - sim.Now()) // one park of its own
		parks = sim.Parks() - parks - 1
	})
	sim.Run()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
		if handed[i] < 4 {
			t.Fatalf("rank %d's sink was handed %d frames, want FEData, several chunks and End", i, handed[i])
		}
	}
	t.Logf("%d ranks parked %d times, handed %v frames", n, parks, handed)
	if parks != 0 {
		t.Errorf("%d ranks parked %d times between the census and the stream's end, want none: each waits once, from before the census", n, parks)
	}
}

// TestSeedMidStreamFaultAtForwardingRank breaks the stream a forwarding
// rank is fed from after frame 1, before the End: an interior rank's
// parent link (the root's node dies) and the root's own source (its FE
// connection, whose end ends the root's record). Rank 4 starts late, so its
// parent, rank 1, is still accepting children when the fault lands. A rank
// whose bootstrap had completed was handed the FEData frame, whose forward
// is not held back by routing, and reports the break from Run — which
// returns, so the forwarders finished. A rank still forming (rank 1, and
// the root when its source breaks) fails its bootstrap at once — rank 1 with
// the stream's error, the root naming the phase its source's end found it in
// — and tears down what it formed, so its subtree sees the link it closes,
// and rank 4 finds no parent to join; every goroutine ends once rank 4's
// dial window has run out.
func TestSeedMidStreamFaultAtForwardingRank(t *testing.T) {
	const n, fanout = 7, 2 // 0 → 1, 2 → 3 … 6
	frames, rt, _ := routedSeed(n, 2, 96)
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
				got        int
				boot, wait error
			}
			res := make([]result, n)
			spawn := func(i int) {
				if _, err := cl.Node(i).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
					feed := func(f *Forming) {
						sim.After(0, func() {
							f.Feed(frames[0])
							f.Feed(frames[1])
						})
						sim.After(time.Second, func() {
							if tc.rootDies {
								cl.KillNode(0)
							} else {
								f.End(io.ErrUnexpectedEOF)
							}
						})
					}
					r := &res[i]
					// A rank formed before the fault reports the stream's
					// error; one still forming, its bootstrap's.
					c, err := bootSeeded(p, Config{
						Rank: i, Size: n, Fanout: fanout, Nodelist: nodelist, Port: 50006,
					}, feed, rt, func(coll.Frame, proctab.Chunk) error { r.got++; return nil }, nil)
					switch {
					case errors.Is(err, errBootstrap):
						r.boot = err
					case err != nil:
						r.wait = err
					default:
						c.Close()
					}
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
			sim.After(3*time.Second+dialAttempts*DialRetry, func() { live = sim.Live() })
			sim.Run()

			for i, r := range res {
				prefix := fmt.Sprintf("iccl: seed stream at rank %d: ", i)
				switch {
				case tc.rootDies && i == 0: // died with its node
				case i == late:
					if !errors.Is(r.boot, errBootstrap) {
						t.Errorf("rank %d bootstrap with its parent torn down: %v, want a wrapped ErrBootstrap", i, r.boot)
					}
				case i == 0: // forming when its source ends
					if want := "iccl: ready at rank 0: "; !errors.Is(r.boot, errBootstrap) || !strings.Contains(r.boot.Error(), want) {
						t.Errorf("rank 0 bootstrap across its source's end: %v, want a wrapped ErrBootstrap naming %q", r.boot, want)
					}
				case i == 1: // forming when the fault lands
					if !errors.Is(r.boot, errBootstrap) || !strings.Contains(r.boot.Error(), prefix) {
						t.Errorf("rank %d bootstrap across the fault: %v, want a wrapped ErrBootstrap naming %q", i, r.boot, prefix)
					}
				default:
					if r.boot != nil || r.got != 1 || r.wait == nil || !strings.HasPrefix(r.wait.Error(), prefix) {
						t.Errorf("rank %d: bootstrap %v, %d frames, then %v; want the FEData frame, then %q…", i, r.boot, r.got, r.wait, prefix)
					}
				}
			}
			// The rank the fault reached first.
			if got := res[0].boot; !tc.rootDies && !errors.Is(got, io.ErrUnexpectedEOF) {
				t.Errorf("rank 0 reports %v, which does not wrap %v", got, io.ErrUnexpectedEOF)
			}
			if got := res[2].wait; tc.rootDies && !errors.Is(got, simnet.ErrPeerDead) {
				t.Errorf("rank 2 reports %v, which does not wrap %v", got, simnet.ErrPeerDead)
			}
			if live != 0 {
				t.Errorf("%d goroutines still alive a second after rank %d's dial window closed", live, late)
			}
		})
	}
}

// TestSeedMisrouteFailsTheRank: a rank handed an entry it cannot route
// fails its seed with the router's protocol error, naming the host or the
// rank — a leaf (rank 3 of 0 → 1, 2 → 3 … 6), which keeps its chunks as they
// arrive, exactly as an interior rank (rank 1) that re-packs them. Every
// other rank routes the table by its hosts; the misrouting rank's router
// moves one host to a rank outside its subtree, or does not know it.
func TestSeedMisrouteFailsTheRank(t *testing.T) {
	const n, fanout = 7, 2
	frames, rt, _ := routedSeed(n, 2, 96)
	for _, tc := range []struct {
		name string
		at   int    // the misrouting rank
		host string // the host it routes wrongly
		to   int    // where it routes it; -1: nowhere
		want string
	}{
		{"leaf_other_rank", 3, "node3", 4, "seed entry for rank 4 outside rank 3's subtree"},
		{"leaf_unknown_host", 3, "node3", -1, `no daemon rank for host "node3" in seed route`},
		{"interior_other_rank", 1, "node1", 5, "seed entry for rank 5 outside rank 1's subtree"},
		{"interior_unknown_host", 1, "node4", -1, `no daemon rank for host "node4" in seed route`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := vtime.New()
			cl := seedCluster(t, sim, n)
			nodelist := make([]string, n)
			for i := range nodelist {
				nodelist[i] = cl.Node(i).Name()
			}
			bad := &SeedRouter{ChunkBytes: rt.ChunkBytes, RankOf: func(host string) (int, bool) {
				if host == tc.host {
					return tc.to, tc.to >= 0
				}
				return rt.RankOf(host)
			}}
			errs := make([]error, n)
			sim.Go("boot", func() {
				for i := 0; i < n; i++ {
					i := i
					route := rt
					if i == tc.at {
						route = bad
					}
					if _, err := cl.Node(i).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
						c, err := bootSeeded(p, Config{
							Rank: i, Size: n, Fanout: fanout, Nodelist: nodelist, Port: 50007,
						}, scriptedSeed(sim, frames), route, func(coll.Frame, proctab.Chunk) error { return nil }, nil)
						if errs[i] = err; err == nil {
							c.Close()
						}
					}}); err != nil {
						t.Error(err)
					}
				}
			})
			sim.Run()
			if err := errs[tc.at]; !errors.Is(err, errProtocol) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("rank %d: %v, want a protocol error naming %q", tc.at, err, tc.want)
			}
		})
	}
}

// TestSeedSourceOnlyAtRoot pins where a stream comes from: the root is fed
// its frames, every other rank's come down its parent link, so a frame fed to
// rank 1's record fails its stream, and its bootstrap, with a protocol error
// naming it. The root, fed as it should be, forms.
func TestSeedSourceOnlyAtRoot(t *testing.T) {
	sim := vtime.New()
	cl := seedCluster(t, sim, 2)
	nodelist := []string{cl.Node(0).Name(), cl.Node(1).Name()}
	frames := seedFrames([][]byte{[]byte("fedata")})
	errs := make([]error, 2)
	sim.Go("boot", func() {
		for i := range nodelist {
			i := i
			cl.Node(i).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
				f := NewForming(p, Config{Rank: i, Size: 2, Nodelist: nodelist, Port: 50003}, TablelessRoute,
					func(coll.Frame, proctab.Chunk) error { return nil }, nil)
				scriptedSeed(sim, frames)(f) // at rank 1 as well
				c, err := f.Run(nil)
				if errs[i] = err; err == nil {
					c.Close()
				}
			}})
		}
	})
	sim.Run()
	if err := errs[1]; !errors.Is(err, errProtocol) || !strings.Contains(err.Error(), "seed frame fed to rank 1") {
		t.Errorf("rank 1 fed a seed frame: %v, want a protocol error naming it", err)
	}
	if errs[0] != nil {
		t.Errorf("rank 0: %v", errs[0])
	}
}

// parentEndRun is one run of TestSeedParentEndBehindEndWhileForming: rank
// 1's bootstrap and barrier errors, the instant each rank's bootstrap
// returned, and how many goroutines were alive once every dial window had
// closed.
type parentEndRun struct {
	boot, barrier error
	booted        [4]time.Duration
	live          int
}

// runParentEnd launches 0 → 1, 2; 1 → 3, rank 3 spawned at join, with the
// root's whole stream emitted at at, followed by its source's failure when
// fail: the root, while it forms, tears its tree down, and rank 1's parent
// link ends right behind the End. A rank that bootstraps runs a barrier on
// its demultiplexed links.
func runParentEnd(t *testing.T, join, at time.Duration, fail bool) parentEndRun {
	const n, fanout, late = 4, 2, 3
	frames, rt, _ := routedSeed(n, 2, 96)
	sim := vtime.New()
	cl := seedCluster(t, sim, n)
	nodelist := make([]string, n)
	for i := range nodelist {
		nodelist[i] = cl.Node(i).Name()
	}
	var r parentEndRun
	spawn := func(i int) {
		if _, err := cl.Node(i).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
			feed := func(f *Forming) {
				sim.After(at-sim.Now(), func() {
					for _, fr := range frames {
						f.Feed(fr)
					}
					if fail {
						f.End(io.ErrUnexpectedEOF)
					}
				})
			}
			c, err := bootSeeded(p, Config{
				Rank: i, Size: n, Fanout: fanout, Nodelist: nodelist, Port: 50008,
			}, feed, rt, func(coll.Frame, proctab.Chunk) error { return nil }, nil)
			r.booted[i] = sim.Now()
			if i == 1 {
				r.boot = err
			}
			if err != nil {
				return
			}
			c.demuxLinks()
			if err := c.Barrier(); i == 1 {
				r.barrier = err
			}
			c.Close()
		}}); err != nil {
			t.Error(err)
		}
	}
	sim.Go("boot", func() {
		for i := 0; i < n; i++ {
			if i != late {
				spawn(i)
			}
		}
		sim.Sleep(join - sim.Now())
		spawn(late)
	})
	r.live = -1
	sim.After(join+time.Second+dialAttempts*DialRetry, func() { r.live = sim.Live() })
	sim.Run()
	return r
}

// TestSeedParentEndBehindEndWhileForming ends a forming rank's parent link
// right behind its seed's End, the End's charge still running: rank 1 forms
// once its late child, rank 3, has joined and sent its ready, and the root
// sends its stream and tears its tree down at every 5 µs from two charges
// before rank 1 forms in a clean run until the root forms, and across rank
// 3's dial to rank 1 (its SYN reaching a listener that has just closed).
// The link's end fails a rank still forming at once, and a formed rank
// reads it on the link it hands back: rank 1's bootstrap fails, or its
// barrier does, and no goroutine stays parked.
func TestSeedParentEndBehindEndWhileForming(t *testing.T) {
	const join = time.Second
	clean := runParentEnd(t, join, 0, false)
	if clean.boot != nil || clean.barrier != nil || clean.live != 0 {
		t.Fatalf("clean run: rank 1's bootstrap %v, barrier %v, %d goroutines left", clean.boot, clean.barrier, clean.live)
	}
	var ats []time.Duration
	for at := clean.booted[1] - 2*PerMsgCost; at < clean.booted[0]; at += 5 * time.Microsecond {
		ats = append(ats, at)
	}
	for at := join + 850*time.Microsecond; at <= join+910*time.Microsecond; at += 5 * time.Microsecond {
		ats = append(ats, at)
	}
	boots := 0
	for _, at := range ats {
		r := runParentEnd(t, join, at, true)
		switch {
		case r.live != 0:
			t.Errorf("stream and teardown at %v: %d goroutines alive after the dial windows (rank 1: bootstrap %v, barrier %v)", at, r.live, r.boot, r.barrier)
		case r.boot == nil && r.barrier == nil:
			t.Errorf("stream and teardown at %v: rank 1 bootstrapped and ran a barrier under a root that tore its tree down", at)
		case r.boot != nil:
			boots++
		}
	}
	t.Logf("rank 1 formed at %v, the root at %v; of %d faults, %d failed rank 1's bootstrap", clean.booted[1], clean.booted[0], len(ats), boots)
	if boots == 0 || boots == len(ats) {
		t.Errorf("%d of %d faults failed rank 1's bootstrap: the sweep must land both while it forms and after", boots, len(ats))
	}
}
