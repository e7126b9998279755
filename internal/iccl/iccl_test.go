package iccl

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// rig spawns n daemons (one per node) that each call Bootstrap and then fn,
// and returns after the sim completes. Errors inside daemons fail the test.
func rig(t *testing.T, n, fanout int, fn func(c *Comm, p *cluster.Proc) error) time.Duration {
	t.Helper()
	return rigOn(t, vtime.New(), n, fanout, fn)
}

// rigOn is rig on a caller-prepared simulation (spawn observers).
func rigOn(t *testing.T, sim *vtime.Sim, n, fanout int, fn func(c *Comm, p *cluster.Proc) error) time.Duration {
	t.Helper()
	cl, err := cluster.New(sim, cluster.Options{Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	nodelist := make([]string, n)
	for i := range nodelist {
		nodelist[i] = cl.Node(i).Name()
	}
	errs := make([]error, n)
	sim.Go("boot", func() {
		for i := 0; i < n; i++ {
			i := i
			if _, err := cl.Node(i).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
				c, err := Bootstrap(p, Config{
					Rank: i, Size: n, Fanout: fanout, Nodelist: nodelist, Port: 50001,
				})
				if err != nil {
					errs[i] = err
					return
				}
				defer c.Close()
				errs[i] = fn(c, p)
			}}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	end := sim.Run()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
	}
	return end
}

func TestBootstrapShapes(t *testing.T) {
	for _, tc := range []struct{ n, fanout int }{
		{1, 2}, {2, 2}, {5, 2}, {8, 0 /* flat */}, {9, 3}, {16, 4},
	} {
		t.Run(fmt.Sprintf("n%d_f%d", tc.n, tc.fanout), func(t *testing.T) {
			rig(t, tc.n, tc.fanout, func(c *Comm, p *cluster.Proc) error {
				if c.Size() != tc.n {
					return fmt.Errorf("size %d", c.Size())
				}
				return nil
			})
		})
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	n := 7
	exitTimes := make([]time.Duration, n)
	enterTimes := make([]time.Duration, n)
	rig(t, n, 2, func(c *Comm, p *cluster.Proc) error {
		// Stagger arrivals: rank r waits r milliseconds.
		p.Compute(time.Duration(c.Rank()) * time.Millisecond)
		enterTimes[c.Rank()] = p.Sim().Now()
		if err := c.Barrier(); err != nil {
			return err
		}
		exitTimes[c.Rank()] = p.Sim().Now()
		return nil
	})
	var latestEnter time.Duration
	for _, e := range enterTimes {
		if e > latestEnter {
			latestEnter = e
		}
	}
	for r, x := range exitTimes {
		if x < latestEnter {
			t.Fatalf("rank %d left barrier at %v before last entry %v", r, x, latestEnter)
		}
	}
}

func TestBroadcastDeliversToAll(t *testing.T) {
	n := 9
	payload := []byte("rpdtab-seed-payload")
	got := make([][]byte, n)
	rig(t, n, 3, func(c *Comm, p *cluster.Proc) error {
		var in []byte
		if c.IsMaster() {
			in = payload
		}
		out, err := c.Broadcast(in)
		if err != nil {
			return err
		}
		got[c.Rank()] = out
		return nil
	})
	for r, g := range got {
		if !bytes.Equal(g, payload) {
			t.Fatalf("rank %d got %q", r, g)
		}
	}
}

// orderShapes are the tree shapes the gather/scatter rank-order tests run
// on: a small ragged tree, and a three-level fanout-64 tree (1 + 64 + 4034)
// whose interior ranks merge 64 rank-interleaved subtree lists of 64
// entries each.
var orderShapes = []struct{ n, fanout int }{{10, 3}, {11, 4}, {4099, 64}}

func TestGatherRankOrdered(t *testing.T) {
	for _, shape := range orderShapes {
		n := shape.n
		var result [][]byte
		rig(t, n, shape.fanout, func(c *Comm, p *cluster.Proc) error {
			mine := []byte(fmt.Sprintf("from-%d", c.Rank()))
			all, err := c.Gather(mine)
			if err != nil {
				return err
			}
			if c.IsMaster() {
				result = all
			} else if all != nil {
				return fmt.Errorf("non-master got gather result")
			}
			return nil
		})
		if len(result) != n {
			t.Fatalf("n=%d: gathered %d entries", n, len(result))
		}
		for r, blob := range result {
			if string(blob) != fmt.Sprintf("from-%d", r) {
				t.Fatalf("n=%d: rank %d slot holds %q", n, r, blob)
			}
		}
	}
}

func TestScatterDelivery(t *testing.T) {
	for _, shape := range orderShapes {
		n := shape.n
		got := make([][]byte, n)
		rig(t, n, shape.fanout, func(c *Comm, p *cluster.Proc) error {
			var parts [][]byte
			if c.IsMaster() {
				for i := 0; i < n; i++ {
					parts = append(parts, []byte(fmt.Sprintf("part-%d", i)))
				}
			}
			mine, err := c.Scatter(parts)
			if err != nil {
				return err
			}
			got[c.Rank()] = mine
			return nil
		})
		for r, g := range got {
			if string(g) != fmt.Sprintf("part-%d", r) {
				t.Fatalf("n=%d: rank %d got %q", n, r, g)
			}
		}
	}
}

func TestCollectiveSequenceMixed(t *testing.T) {
	n := 6
	rig(t, n, 2, func(c *Comm, p *cluster.Proc) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		var seed []byte
		if c.IsMaster() {
			seed = []byte("x")
		}
		b, err := c.Broadcast(seed)
		if err != nil {
			return err
		}
		all, err := c.Gather(append(b, byte('0'+c.Rank())))
		if err != nil {
			return err
		}
		if c.IsMaster() {
			for r, blob := range all {
				if string(blob) != "x"+string(byte('0'+r)) {
					return fmt.Errorf("slot %d = %q", r, blob)
				}
			}
		}
		return c.Barrier()
	})
}

// TestCommCollectivesNameTheLostPeer kills, before each of Comm's five
// blocking collectives, a peer of the observing rank, on links read
// directly and on demultiplexed ones. On the receive side rank 1 observes
// the peer it reads from first: its child, rank 3, for the up phases of
// Barrier, Gather and FoldUp, its parent, rank 0, for the down phases of
// Broadcast and Scatter. On the send side the observer first writes to the
// dead peer: leaf rank 3 to its parent, rank 1, in the up phases, and rank
// 1 to its child, rank 3, in the down phases. The observer's error must
// lead with the lost peer's rank and wrap the link's failure, and the
// simulation must end with nothing left running.
func TestCommCollectivesNameTheLostPeer(t *testing.T) {
	const n, fanout = 4, 2 // 0 → {1, 2}, 1 → {3}
	const killAt = 10 * time.Second
	concat := func(acc, next []byte) ([]byte, error) { return append(acc, next...), nil }
	barrier := func(c *Comm) error { return c.Barrier() }
	gather := func(c *Comm) error { _, err := c.Gather([]byte{1}); return err }
	foldUp := func(c *Comm) error { _, err := c.FoldUp([]byte{1}, concat); return err }
	broadcast := func(c *Comm) error { _, err := c.Broadcast([]byte{1}); return err }
	scatter := func(c *Comm) error { _, err := c.Scatter(make([][]byte, n)); return err }
	for _, tc := range []struct {
		name             string
		observer, victim int
		op               func(c *Comm) error
	}{
		{"Barrier", 1, 3, barrier},
		{"Gather", 1, 3, gather},
		{"FoldUp", 1, 3, foldUp},
		{"Broadcast", 1, 0, broadcast},
		{"Scatter", 1, 0, scatter},
		{"Barrier/send", 3, 1, barrier},
		{"Gather/send", 3, 1, gather},
		{"FoldUp/send", 3, 1, foldUp},
		{"Broadcast/send", 1, 3, broadcast},
		{"Scatter/send", 1, 3, scatter},
	} {
		for _, demuxed := range []bool{false, true} {
			name := tc.name + "/direct"
			if demuxed {
				name = tc.name + "/demuxed"
			}
			t.Run(name, func(t *testing.T) {
				r := newRelayRig(t, n)
				r.sim.After(killAt, func() { r.cl.KillNode(tc.victim) })
				r.run(t, fanout, func(c *Comm, p *cluster.Proc) error {
					if demuxed {
						c.demuxLinks()
					}
					p.Sim().Sleep(killAt + time.Second - p.Sim().Now())
					return tc.op(c)
				})
				err := r.errs[tc.observer]
				want := fmt.Sprintf("rank %d: ", tc.victim)
				if err == nil || !strings.HasPrefix(err.Error(), want) || !errors.Is(err, simnet.ErrPeerDead) {
					t.Errorf("rank %d's %s with rank %d dead returned %v, want %q leading a wrapped ErrPeerDead",
						tc.observer, tc.name, tc.victim, err, want)
				}
				if live := r.sim.Live(); live != 0 {
					t.Errorf("%d goroutines still alive after the run", live)
				}
			})
		}
	}
}

func TestScatterWrongPartsCount(t *testing.T) {
	rig(t, 3, 2, func(c *Comm, p *cluster.Proc) error {
		if !c.IsMaster() {
			_, err := c.Scatter(nil)
			return err
		}
		if _, err := c.Scatter([][]byte{[]byte("only-one")}); err == nil {
			return fmt.Errorf("scatter with wrong count accepted")
		}
		// Recover with a correct scatter so peers unblock.
		_, err := c.Scatter([][]byte{{1}, {2}, {3}})
		return err
	})
}

func TestBadConfigRejected(t *testing.T) {
	sim := vtime.New()
	cl, _ := cluster.New(sim, cluster.Options{Nodes: 1})
	sim.Go("t", func() {
		p, _ := cl.Node(0).SpawnProc(cluster.Spec{})
		if _, err := Bootstrap(p, Config{Rank: 0, Size: 0}); err == nil {
			t.Error("size 0 accepted")
		}
		if _, err := Bootstrap(p, Config{Rank: 2, Size: 2, Nodelist: []string{"a", "b"}}); err == nil {
			t.Error("rank out of range accepted")
		}
		if _, err := Bootstrap(p, Config{Rank: 0, Size: 3, Nodelist: []string{"a"}}); err == nil {
			t.Error("short nodelist accepted")
		}
	})
	sim.Run()
}

func TestFlatTreeIsSingleLevel(t *testing.T) {
	// In a flat (1-deep) tree every non-master is a direct child of rank 0.
	n := 8
	for r := 1; r < n; r++ {
		if Parent(r, n) != 0 {
			t.Fatalf("flat parent of %d = %d", r, Parent(r, n))
		}
	}
	if got := len(Children(0, n, n)); got != n-1 {
		t.Fatalf("flat root has %d children", got)
	}
}

func TestSubtreeRanks(t *testing.T) {
	// n=7, fanout=2: subtree of 1 is {1,3,4}; of 2 is {2,5,6}.
	got := SubtreeRanks(1, 7, 2)
	want := []int{1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("SubtreeRanks(1) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SubtreeRanks(1) = %v", got)
		}
	}
}

// Property: Parent/Children are mutually consistent and subtree ranks
// partition 0..n-1.
func TestPropertyTreeConsistency(t *testing.T) {
	f := func(nRaw, fRaw uint8) bool {
		n := int(nRaw%100) + 1
		fanout := int(fRaw%6) + 1
		for r := 1; r < n; r++ {
			par := Parent(r, fanout)
			found := false
			for _, c := range Children(par, n, fanout) {
				if c == r {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		all := SubtreeRanks(0, n, fanout)
		if len(all) != n {
			return false
		}
		for i, r := range all {
			if r != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: gather returns exactly the per-rank contribution for random
// tree shapes and payload sizes.
func TestPropertyGatherExact(t *testing.T) {
	f := func(nRaw, fRaw, szRaw uint8) bool {
		n := int(nRaw%12) + 1
		fanout := int(fRaw % 5) // 0 = flat
		sz := int(szRaw%64) + 1
		sim := vtime.New()
		cl, err := cluster.New(sim, cluster.Options{Nodes: n})
		if err != nil {
			return false
		}
		nodelist := make([]string, n)
		for i := range nodelist {
			nodelist[i] = cl.Node(i).Name()
		}
		okAll := true
		sim.Go("boot", func() {
			for i := 0; i < n; i++ {
				i := i
				cl.Node(i).SpawnProc(cluster.Spec{Main: func(p *cluster.Proc) {
					c, err := Bootstrap(p, Config{Rank: i, Size: n, Fanout: fanout, Nodelist: nodelist, Port: 50002})
					if err != nil {
						okAll = false
						return
					}
					defer c.Close()
					mine := bytes.Repeat([]byte{byte(i)}, sz)
					all, err := c.Gather(mine)
					if err != nil {
						okAll = false
						return
					}
					if c.IsMaster() {
						for r, blob := range all {
							if len(blob) != sz || blob[0] != byte(r) {
								okAll = false
							}
						}
					}
				}})
			}
		})
		sim.Run()
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDeeperTreeFasterThanFlatAtScale(t *testing.T) {
	// With per-message root costs, a fanout-8 tree should gather faster
	// than a flat tree at 64 daemons (the paper's motivation for TBŌNs).
	gatherTime := func(fanout int) time.Duration {
		var start, end time.Duration
		n := 64
		rig(t, n, fanout, func(c *Comm, p *cluster.Proc) error {
			if c.IsMaster() {
				start = p.Sim().Now()
			}
			_, err := c.Gather(bytes.Repeat([]byte{1}, 256))
			if c.IsMaster() {
				end = p.Sim().Now()
			}
			return err
		})
		return end - start
	}
	flat := gatherTime(0)
	tree := gatherTime(8)
	if tree >= flat {
		t.Fatalf("fanout-8 gather (%v) not faster than flat (%v) at 64 daemons", tree, flat)
	}
}
