package iccl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/obs"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// Plane v2 tests: the tree-internal collectives (AllGather/AllReduce),
// concurrent tagged streams, the flow-control window's
// interior-depth bound, and the tag-divergence error contract.

func encU64(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

func TestPlaneAllGatherShapes(t *testing.T) {
	for _, tc := range treeShapes {
		t.Run(fmt.Sprintf("n%d_f%d", tc.n, tc.fanout), func(t *testing.T) {
			blob := func(rk int) []byte { return bytes.Repeat([]byte{byte(rk)}, 3+rk*11%40) }
			got := make([][][]byte, tc.n)
			rig(t, tc.n, tc.fanout, func(c *Comm, p *cluster.Proc) error {
				pl := c.NewPlane(64, 0, nil, nil)
				all, err := pl.AllGather(blob(c.Rank()))
				if err != nil {
					return err
				}
				got[c.Rank()] = all
				return nil
			})
			for rk, all := range got {
				if len(all) != tc.n {
					t.Fatalf("rank %d assembled %d of %d contributions", rk, len(all), tc.n)
				}
				for src, b := range all {
					if !bytes.Equal(b, blob(src)) {
						t.Fatalf("rank %d holds %d bytes for rank %d, want %d", rk, len(b), src, len(blob(src)))
					}
				}
			}
		})
	}
}

func TestPlaneAllReduceShapes(t *testing.T) {
	for _, tc := range treeShapes {
		t.Run(fmt.Sprintf("n%d_f%d", tc.n, tc.fanout), func(t *testing.T) {
			got := make([][]byte, tc.n)
			rig(t, tc.n, tc.fanout, func(c *Comm, p *cluster.Proc) error {
				pl := c.NewPlane(64, 0, nil, nil)
				out, err := pl.AllReduce(encU64(uint64(c.Rank()+1)), "sum")
				if err != nil {
					return err
				}
				got[c.Rank()] = out
				return nil
			})
			want := uint64(tc.n) * uint64(tc.n+1) / 2
			for rk, out := range got {
				if len(out) != 8 || binary.BigEndian.Uint64(out) != want {
					t.Fatalf("rank %d allreduce sum %v, want %d", rk, out, want)
				}
			}
		})
	}

	// Concat on every rank: each daemon's byte appears exactly once in
	// everyone's result.
	const n = 13
	got := make([][]byte, n)
	rig(t, n, 3, func(c *Comm, p *cluster.Proc) error {
		pl := c.NewPlane(64, 0, nil, nil)
		out, err := pl.AllReduce([]byte{byte(c.Rank())}, "concat")
		if err != nil {
			return err
		}
		got[c.Rank()] = out
		return nil
	})
	for rk, out := range got {
		if len(out) != n {
			t.Fatalf("rank %d concat of %d daemons yields %d bytes", rk, n, len(out))
		}
		seen := make([]bool, n)
		for _, b := range out {
			if int(b) >= n || seen[b] {
				t.Fatalf("rank %d: contribution %d duplicated or out of range", rk, b)
			}
			seen[b] = true
		}
	}
}

func TestPlaneTreeOpsInterleaveLockstepFEOps(t *testing.T) {
	// Tree-lockstep collectives sequence above coll.MaxUserTag, so an FE
	// gather (lockstep tag 1) between an allgather and an allreduce must
	// keep its stream apart, and the tree's barrier (the walk's opcodes)
	// around them passes over the same demuxed links.
	const n, fanout = 9, 2
	d := &feDriver{}
	rig(t, n, fanout, func(c *Comm, p *cluster.Proc) error {
		pl := d.plane(c, 64, 0)
		if err := warmUp(c); err != nil {
			return err
		}
		all, err := pl.AllGather([]byte{byte(c.Rank())})
		if err != nil {
			return err
		}
		if len(all) != n {
			return fmt.Errorf("allgather %d of %d", len(all), n)
		}
		if err := pl.Gather([]byte{byte('a' + c.Rank())}); err != nil {
			return err
		}
		out, err := pl.AllReduce(encU64(1), "sum")
		if err != nil {
			return err
		}
		if binary.BigEndian.Uint64(out) != n {
			return fmt.Errorf("allreduce sum %d", binary.BigEndian.Uint64(out))
		}
		return c.Barrier()
	})
	all, err := d.gatherAtFE(n)
	if err != nil {
		t.Fatal(err)
	}
	for rk, b := range all {
		if len(b) != 1 || b[0] != byte('a'+rk) {
			t.Fatalf("rank %d gathered %q", rk, b)
		}
	}
}

func TestPlaneConcurrentTaggedCollectives(t *testing.T) {
	// Four independent tagged collectives per daemon, each driven by its
	// own goroutine on one shared session tree: the per-connection router
	// must keep the streams apart.
	const n, fanout = 13, 3
	tag := func(i uint32) uint32 { return coll.MinUserTag + i }
	payload := bytes.Repeat([]byte("tagged-"), 30)
	d := &feDriver{send: coll.RawFrames(coll.OpBroadcast, tag(0), "", payload, 64)}
	rig(t, n, fanout, func(c *Comm, p *cluster.Proc) error {
		pl := d.plane(c, 64, 0)
		sim := p.Sim()
		rank := c.Rank()
		done := vtime.NewChan[error](sim)

		sim.Go(fmt.Sprintf("bc-%d", rank), func() {
			got, err := pl.BroadcastTag(tag(0))
			if err == nil && !bytes.Equal(got, payload) {
				err = fmt.Errorf("broadcast delivered %d bytes", len(got))
			}
			done.Send(err)
		})
		sim.Go(fmt.Sprintf("g-%d", rank), func() {
			done.Send(pl.GatherTag(tag(1), []byte{byte(rank)}))
		})
		sim.Go(fmt.Sprintf("sum-%d", rank), func() {
			done.Send(pl.ReduceTag(tag(2), encU64(uint64(rank+1)), "sum"))
		})
		sim.Go(fmt.Sprintf("cc-%d", rank), func() {
			done.Send(pl.ReduceTag(tag(3), []byte{byte(rank)}, "concat"))
		})
		for i := 0; i < 4; i++ {
			err, ok := done.Recv()
			if !ok {
				return fmt.Errorf("done queue closed")
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	byTag := map[uint32]*feDriver{tag(1): {}, tag(2): {}, tag(3): {}}
	for _, f := range d.recv {
		byTag[f.H.Tag].recv = append(byTag[f.H.Tag].recv, f)
	}
	all, err := byTag[tag(1)].gatherAtFE(n)
	if err != nil {
		t.Fatal(err)
	}
	for src, b := range all {
		if len(b) != 1 || b[0] != byte(src) {
			t.Fatalf("gather slot %d holds %v", src, b)
		}
	}
	sum, err := byTag[tag(2)].reduceAtFE()
	if err != nil || binary.BigEndian.Uint64(sum) != uint64(n)*uint64(n+1)/2 {
		t.Fatalf("sum %x, %v", sum, err)
	}
	if cc, err := byTag[tag(3)].reduceAtFE(); err != nil || len(cc) != n {
		t.Fatalf("concat %d bytes, %v", len(cc), err)
	}
}

func TestPlaneUserTagRangeEnforced(t *testing.T) {
	rig(t, 1, 2, func(c *Comm, p *cluster.Proc) error {
		pl := c.NewPlane(0, 0, func(coll.Frame) error { return nil }, nil)
		if _, err := pl.BroadcastTag(coll.MinUserTag - 1); err == nil {
			return fmt.Errorf("lockstep-space tag accepted")
		}
		if err := pl.GatherTag(coll.MaxUserTag, nil); err == nil {
			return fmt.Errorf("tree-space tag accepted")
		}
		if err := pl.ReduceTag(0, nil, "sum"); err == nil {
			return fmt.Errorf("zero tag accepted")
		}
		return nil
	})
}

func TestPlaneTagMismatchNamesOpTagsAndRank(t *testing.T) {
	// Satellite regression at K = fanout+1: an FE-originated stream whose
	// op/tag does not match the running collective must fail eagerly, and
	// the error must name the offending op, both tags, and the rank.
	const n, fanout = 5, 4
	d := &feDriver{send: coll.RawFrames(coll.OpGather, 9, "", []byte("divergent"), 0)}
	var rootErr error
	rig(t, n, fanout, func(c *Comm, p *cluster.Proc) error {
		_, err := d.plane(c, 0, 0).Broadcast() // lockstep tag 1 at every rank
		if c.IsMaster() {
			rootErr = err
			return nil
		}
		// Non-roots never receive a frame: the root errors out and the rig
		// tears its connections down, which is the failure they observe.
		if err == nil {
			return fmt.Errorf("non-root broadcast succeeded after root divergence")
		}
		return nil
	})
	if rootErr == nil {
		t.Fatal("diverged stream accepted at the root")
	}
	if !errors.Is(rootErr, errProtocol) {
		t.Fatalf("divergence error %v does not wrap ErrProtocol", rootErr)
	}
	for _, want := range []string{"gather", "broadcast", "tag 9", "tag 1", "rank 0", "diverged"} {
		if !strings.Contains(rootErr.Error(), want) {
			t.Fatalf("divergence error %q does not name %q", rootErr, want)
		}
	}
}

// runFlowReduce runs one 13-daemon concat reduce with a slowed leaf
// subtree and returns each rank's coll.queue.depth.max high-water gauge.
// Reduce streams chunk their payload (coll.RawFrames), so every link
// carries a long stream; interior nodes drain their child slots
// serially, and rank 4 (slot 0 of interior rank 1) sits on a slow host —
// while rank 1 waits on that slot, ranks 5 and 6 flood theirs. A window
// longer than the stream lets the flood queue O(stream); a short one
// bounds it.
func runFlowReduce(t *testing.T, window int) []uint64 {
	t.Helper()
	const n, fanout, chunk = 13, 3, 64
	payload := bytes.Repeat([]byte{0xA5}, 4096) // ~64 chunks per daemon at chunk=64
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{
		Nodes: n,
		Net:   simnet.Options{SlowHosts: map[string]float64{"node4": 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	nodelist := make([]string, n)
	for i := range nodelist {
		nodelist[i] = cl.Node(i).Name()
	}
	regs := make([]*obs.Registry, n)
	for i := range regs {
		regs[i] = obs.NewRegistry()
	}
	d := &feDriver{}
	errs := make([]error, n)
	sim.Go("boot", func() {
		for i := 0; i < n; i++ {
			i := i
			if _, err := cl.Node(i).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
				c, err := Bootstrap(p, Config{
					Rank: i, Size: n, Fanout: fanout, Nodelist: nodelist, Port: 50001,
					Metrics: regs[i],
				})
				if err != nil {
					errs[i] = err
					return
				}
				defer c.Close()
				errs[i] = d.plane(c, chunk, window).Reduce(payload, "concat")
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
	out, err := d.reduceAtFE()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n*len(payload) {
		t.Fatalf("concat of %d daemons yields %d bytes, want %d", n, len(out), n*len(payload))
	}
	for i, b := range out {
		if b != 0xA5 {
			t.Fatalf("combined payload corrupted at byte %d under flow control", i)
		}
	}
	depths := make([]uint64, n)
	for i, reg := range regs {
		depths[i] = reg.Snapshot().Gauges["coll.queue.depth.max"]
	}
	return depths
}

func TestPlaneFlowControlBoundsInteriorDepth(t *testing.T) {
	// Property: with the credit window on, no (link, tag) queue at any
	// rank ever holds more than window chunks, however skewed the subtree
	// drain order — window 0 selects coll.DefaultWindow.
	for _, tc := range []struct{ window, bound int }{
		{1, 1},
		{4, 4},
		{0, coll.DefaultWindow},
	} {
		t.Run(fmt.Sprintf("window%d", tc.bound), func(t *testing.T) {
			depths := runFlowReduce(t, tc.window)
			for rk, dmax := range depths {
				if dmax > uint64(tc.bound) {
					t.Fatalf("rank %d queue depth high-water %d exceeds window %d", rk, dmax, tc.bound)
				}
			}
			// The slow-subtree interior rank must have queued something, or
			// the property holds vacuously.
			if depths[1] == 0 {
				t.Fatal("interior rank 1 never queued a chunk — skew rig broken")
			}
		})
	}
}

func TestPlaneWindowAboveStreamLengthShowsStreamDepth(t *testing.T) {
	// The contrast the window exists to remove: once it is at least as
	// long as the stream (~64 chunks per daemon here), credits never bind,
	// and the same skewed gather piles O(stream) chunks at the interior
	// rank.
	const window = 128
	depths := runFlowReduce(t, window)
	var max uint64
	for _, d := range depths {
		if d > max {
			max = d
		}
	}
	if max <= coll.DefaultWindow {
		t.Fatalf("window %d high-water is %d; expected O(stream) depth above %d",
			window, max, coll.DefaultWindow)
	}
}
