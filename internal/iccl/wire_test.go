package iccl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/proctab"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// The wire pins: what tree formation, every Comm collective, the tree-only
// Plane collectives and the session-seed stream put on the network of a
// 3-level tree (13 daemons, fanout 3), as simnet message and byte counts.
// A refactor that claims to move no wire byte fails here, in go test,
// rather than only in the benchmark gate. The numbers were taken at commit
// eebcf40, before the two collective stacks were deduplicated.

const wireN, wireFanout = 13, 3

type wireStep struct {
	name        string
	msgs, bytes int64
}

// wireRig runs boot on every daemon at t=0 and then each op in its own
// one-second slot, sampling the network counters between slots; it returns
// the per-slot deltas, slot 0 being boot.
func wireRig(t *testing.T, boot func(p *cluster.Proc, cfg Config) (*Comm, error), ops []func(c *Comm) error) []simnet.Stats {
	t.Helper()
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: wireN})
	if err != nil {
		t.Fatal(err)
	}
	nodelist := make([]string, wireN)
	for i := range nodelist {
		nodelist[i] = cl.Node(i).Name()
	}
	errs := make([]error, wireN)
	samples := []simnet.Stats{{}}
	sim.Go("boot", func() {
		for i := 0; i < wireN; i++ {
			i := i
			if _, err := cl.Node(i).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
				c, err := boot(p, Config{Rank: i, Size: wireN, Fanout: wireFanout, Nodelist: nodelist, Port: 50009})
				if err != nil {
					errs[i] = err
					return
				}
				defer c.Close()
				for k, op := range ops {
					sim.Sleep(time.Duration(k+1)*time.Second - sim.Now())
					if errs[i] = op(c); errs[i] != nil {
						return
					}
				}
			}}); err != nil {
				t.Error(err)
				return
			}
		}
		for k := 0; k <= len(ops); k++ {
			sim.Sleep(time.Duration(k)*time.Second + 500*time.Millisecond - sim.Now())
			samples = append(samples, cl.Net().Stats())
		}
	})
	sim.Run()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
	}
	deltas := make([]simnet.Stats, len(samples)-1)
	for k := range deltas {
		deltas[k] = simnet.Stats{
			Messages: samples[k+1].Messages - samples[k].Messages,
			Bytes:    samples[k+1].Bytes - samples[k].Bytes,
		}
	}
	return deltas
}

func checkWire(t *testing.T, got []simnet.Stats, want []wireStep) {
	t.Helper()
	for k, w := range want {
		if got[k].Messages != w.msgs || got[k].Bytes != w.bytes {
			t.Errorf("%s: %d messages / %d bytes on the wire, pinned %d / %d",
				w.name, got[k].Messages, got[k].Bytes, w.msgs, w.bytes)
		}
	}
}

func u64(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }

func sumU64(acc, next []byte) ([]byte, error) {
	if acc == nil {
		return next, nil
	}
	return u64(binary.BigEndian.Uint64(acc) + binary.BigEndian.Uint64(next)), nil
}

func TestWireBytesPinnedCollectives(t *testing.T) {
	var planes [wireN]*Plane
	plane := func(c *Comm) *Plane {
		if planes[c.Rank()] == nil {
			planes[c.Rank()] = c.NewPlane(64, 0, nil, nil)
		}
		return planes[c.Rank()]
	}
	blob := func(rk int) []byte { return bytes.Repeat([]byte{byte(rk)}, 10+rk) }
	got := wireRig(t, Bootstrap, []func(c *Comm) error{
		func(c *Comm) error { return c.Barrier() },
		func(c *Comm) error {
			var in []byte
			if c.IsMaster() {
				in = bytes.Repeat([]byte("b"), 100)
			}
			out, err := c.Broadcast(in)
			if err == nil && len(out) != 100 {
				err = fmt.Errorf("broadcast delivered %d bytes", len(out))
			}
			return err
		},
		func(c *Comm) error {
			all, err := c.Gather(blob(c.Rank()))
			for rk := range all {
				if err == nil && !bytes.Equal(all[rk], blob(rk)) {
					err = fmt.Errorf("gather slot %d holds %q", rk, all[rk])
				}
			}
			return err
		},
		func(c *Comm) error {
			var parts [][]byte
			if c.IsMaster() {
				for rk := 0; rk < wireN; rk++ {
					parts = append(parts, blob(rk))
				}
			}
			mine, err := c.Scatter(parts)
			if err == nil && !bytes.Equal(mine, blob(c.Rank())) {
				err = fmt.Errorf("scatter delivered %q", mine)
			}
			return err
		},
		func(c *Comm) error {
			sum, err := c.FoldUp(u64(uint64(c.Rank())), sumU64)
			if err == nil && c.IsMaster() && binary.BigEndian.Uint64(sum) != wireN*(wireN-1)/2 {
				err = fmt.Errorf("fold summed to %d", binary.BigEndian.Uint64(sum))
			}
			return err
		},
		func(c *Comm) error {
			all, err := plane(c).AllGather(blob(c.Rank()))
			for rk := range all {
				if err == nil && !bytes.Equal(all[rk], blob(rk)) {
					err = fmt.Errorf("allgather slot %d holds %q", rk, all[rk])
				}
			}
			return err
		},
		func(c *Comm) error {
			sum, err := plane(c).AllReduce(u64(uint64(c.Rank())), "sum")
			if err == nil && binary.BigEndian.Uint64(sum) != wireN*(wireN-1)/2 {
				err = fmt.Errorf("allreduce summed to %d", binary.BigEndian.Uint64(sum))
			}
			return err
		},
	})
	checkWire(t, got, []wireStep{
		{"bootstrap", 24, 288},
		{"Comm.Barrier", 24, 192},
		{"Comm.Broadcast", 12, 1344},
		{"Comm.Gather", 12, 672},
		{"Comm.Scatter", 12, 672},
		{"Comm.FoldUp", 12, 240},
		// Each stream's last chunk carries its end marker: per link and
		// direction one End (49 B, 52 B with the "sum" filter) and one
		// credit (33 B) fewer, and the Last chunk 16 B longer. The
		// AllGather's table goes down in 6 messages a link, all of them its
		// Tail under the default window of 32, so they earn no credit.
		{"Plane.AllGather", 90, 8322},
		{"Plane.AllReduce", 24, 1536},
	})
}

func TestWireBytesPinnedSeedStream(t *testing.T) {
	// Two tasks per node, chunked small enough that every subtree stream
	// re-packs into several chunks.
	frames, rt, _ := routedSeed(wireN, 2, 96)
	got := wireRig(t, func(p *cluster.Proc, cfg Config) (*Comm, error) {
		// cluster node names are the hosts the table must route by.
		for rk, name := range cfg.Nodelist {
			if name != fmt.Sprintf("node%d", rk) {
				return nil, fmt.Errorf("rig names node %d %q", rk, name)
			}
		}
		entries := 0
		c, err := bootSeeded(p, cfg, scriptedSeed(p.Sim(), frames), rt, func(f coll.Frame, c proctab.Chunk) error {
			entries += c.Len()
			return nil
		}, nil)
		if err != nil {
			return nil, err
		}
		if entries != 2 {
			return c, fmt.Errorf("rank %d received %d table entries, want 2", cfg.Rank, entries)
		}
		return c, nil
	}, nil)
	checkWire(t, got, []wireStep{{"bootstrap + routed seed", 66, 3223}})
}
