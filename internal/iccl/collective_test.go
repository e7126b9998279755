package iccl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
)

// Collective-plane tests. The root's FE bridge is replaced by in-memory
// frames: push() hands the root pre-built FE frames, up() records the
// FE-bound stream for assembly — exactly the framing internal/core speaks
// over the LMONP connection.

// feDriver is an in-memory front end for one collective op at the root.
type feDriver struct {
	send []coll.Frame // frames the "FE" ships down, each stream's last chunk carrying its end marker
	sent int
	recv []coll.Frame // frames the root ships up

	pause  int           // with resume: the frames it ships before it pauses
	resume time.Duration // when it ships the rest
}

// plane attaches c's plane. The root's gets the driver's up hook, and the
// frames the driver ships down wait whole on its front end's link for the
// operation that takes them, as a front end's do that sent before the root
// entered.
func (d *feDriver) plane(c *Comm, chunkBytes, window int) *Plane {
	if !c.IsMaster() {
		return c.NewPlane(chunkBytes, window, nil, nil)
	}
	pl := c.NewPlane(chunkBytes, window, d.up, nil)
	d.send = wireFrames(d.send, pl.window)
	if d.resume == 0 {
		d.push(pl, len(d.send))
		return pl
	}
	d.push(pl, d.pause)
	sim := c.p.Sim()
	sim.After(d.resume-sim.Now(), func() { d.push(pl, len(d.send)) })
	return pl
}

// push hands the root the next n frames the driver ships down.
func (d *feDriver) push(pl *Plane, n int) {
	for ; n > 0 && d.sent < len(d.send); n-- {
		pl.PushFE(d.send[d.sent])
		d.sent++
	}
}

func (d *feDriver) up(f coll.Frame) error {
	d.recv = append(d.recv, f)
	return nil
}

// wireFrames is frames as a front end sends them down a tree of the given
// window: each stream's last chunk carries the end marker after it, and its
// last window messages are its Tail (coll.Merged). It takes frames that are
// already so too.
func wireFrames(frames []coll.Frame, window int) []coll.Frame {
	var out []coll.Frame
	for len(frames) > 0 {
		n := 1
		for n < len(frames) && !frames[n-1].End && !frames[n-1].Last {
			n++
		}
		out = append(out, coll.Merged(split(frames[:n]), window)...)
		frames = frames[n:]
	}
	return out
}

// split is frames as a plane operation steps them: a Last chunk, then the
// end marker it carries.
func split(frames []coll.Frame) []coll.Frame {
	var out []coll.Frame
	for _, f := range frames {
		out = append(out, f)
		if f.Last {
			out = append(out, f.EndMarker())
		}
	}
	return out
}

// gatherAtFE assembles the recorded up-stream like Session.Gather does.
func (d *feDriver) gatherAtFE(size int) ([][]byte, error) {
	var asm coll.RankAssembler
	for _, f := range split(d.recv) {
		if f.End {
			return asm.Finish(f.H, f.Total, size)
		}
		if err := asm.Add(f.H, f.Body); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("no end frame")
}

// reduceAtFE assembles the recorded up-stream like Session.Reduce does.
func (d *feDriver) reduceAtFE() ([]byte, error) {
	var asm coll.RawAssembler
	for _, f := range split(d.recv) {
		if f.End {
			return asm.Finish(f.H, f.Total)
		}
		if err := asm.Add(f.H, f.Body); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("no end frame")
}

// planeRig runs fn on every daemon of an n-wide fanout-f tree; the root's
// plane gets the driver's hooks.
func planeRig(t *testing.T, n, fanout, chunkBytes int, driver *feDriver, fn func(pl *Plane, c *Comm) error) {
	t.Helper()
	rig(t, n, fanout, func(c *Comm, p *cluster.Proc) error {
		return fn(driver.plane(c, chunkBytes, 0), c)
	})
}

// treeShapes are the shapes the satellite calls out: K=1, K=fanout+1,
// prime K, plus larger non-power-of-k counts.
var treeShapes = []struct{ n, fanout int }{
	{1, 2},  // K=1: the master is the whole tree
	{4, 3},  // K = k+1: one interior level, one partial
	{5, 4},  // K = k+1
	{13, 3}, // prime K
	{17, 4}, // prime K
	{23, 4}, // prime K, deeper
	{9, 2},  // non-power-of-k
}

func TestPlaneGatherShapes(t *testing.T) {
	for _, tc := range treeShapes {
		t.Run(fmt.Sprintf("n%d_f%d", tc.n, tc.fanout), func(t *testing.T) {
			d := &feDriver{}
			planeRig(t, tc.n, tc.fanout, 64, d, func(pl *Plane, c *Comm) error {
				mine := bytes.Repeat([]byte{byte(c.Rank())}, 10+c.Rank()*7%50)
				return pl.Gather(mine)
			})
			out, err := d.gatherAtFE(tc.n)
			if err != nil {
				t.Fatal(err)
			}
			for rk, blob := range out {
				want := bytes.Repeat([]byte{byte(rk)}, 10+rk*7%50)
				if !bytes.Equal(blob, want) {
					t.Fatalf("rank %d: %d bytes, want %d", rk, len(blob), len(want))
				}
			}
		})
	}
}

func TestPlaneBroadcastChunkedShapes(t *testing.T) {
	payload := bytes.Repeat([]byte("broadcast-data-"), 40) // 600 bytes, chunked at 64
	for _, tc := range treeShapes {
		t.Run(fmt.Sprintf("n%d_f%d", tc.n, tc.fanout), func(t *testing.T) {
			d := &feDriver{send: coll.RawFrames(coll.OpBroadcast, 1, "", payload, 64)}
			got := make([][]byte, tc.n)
			planeRig(t, tc.n, tc.fanout, 64, d, func(pl *Plane, c *Comm) error {
				data, err := pl.Broadcast()
				if err != nil {
					return err
				}
				got[c.Rank()] = data
				return nil
			})
			for rk, g := range got {
				if !bytes.Equal(g, payload) {
					t.Fatalf("rank %d got %d bytes", rk, len(g))
				}
			}
		})
	}
}

func TestPlaneReduceConcatAndSum(t *testing.T) {
	for _, tc := range treeShapes {
		t.Run(fmt.Sprintf("n%d_f%d", tc.n, tc.fanout), func(t *testing.T) {
			d := &feDriver{}
			planeRig(t, tc.n, tc.fanout, 64, d, func(pl *Plane, c *Comm) error {
				mine := make([]byte, 8)
				mine[7] = 1 // uint64(1) big-endian
				return pl.Reduce(mine, "sum")
			})
			out, err := d.reduceAtFE()
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 8 {
				t.Fatalf("%d bytes", len(out))
			}
			sum := uint64(out[4])<<24 | uint64(out[5])<<16 | uint64(out[6])<<8 | uint64(out[7])
			if sum != uint64(tc.n) {
				t.Fatalf("sum %d, want %d", sum, tc.n)
			}
		})
	}

	// Concat: every daemon's byte appears exactly once; interior nodes
	// combine, so the FE-bound stream carries n bytes regardless of shape.
	d := &feDriver{}
	n := 13
	planeRig(t, n, 3, 64, d, func(pl *Plane, c *Comm) error {
		return pl.Reduce([]byte{byte(c.Rank())}, "concat")
	})
	out, err := d.reduceAtFE()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("concat of %d daemons yields %d bytes", n, len(out))
	}
	seen := make([]bool, n)
	for _, b := range out {
		if int(b) >= n || seen[b] {
			t.Fatalf("byte %d duplicated or out of range", b)
		}
		seen[b] = true
	}
}

func TestPlaneSequenceMixedOps(t *testing.T) {
	// broadcast → gather → broadcast → reduce in one session: the lockstep
	// tag must keep the streams apart.
	const n, fanout = 9, 2
	bcast, second := []byte("seed"), []byte("second")
	d := &feDriver{}
	d.send = append(d.send, coll.RawFrames(coll.OpBroadcast, 1, "", bcast, 0)...)
	d.send = append(d.send, coll.RawFrames(coll.OpBroadcast, 3, "", second, 0)...)
	gotSecond := make([][]byte, n)
	planeRig(t, n, fanout, 0, d, func(pl *Plane, c *Comm) error {
		b, err := pl.Broadcast() // tag 1
		if err != nil {
			return err
		}
		if err := pl.Gather(append(b, byte(c.Rank()))); err != nil { // tag 2
			return err
		}
		if gotSecond[c.Rank()], err = pl.Broadcast(); err != nil { // tag 3
			return err
		}
		return pl.Reduce([]byte{1}, "concat") // tag 4
	})
	// Split the up-stream by tag: gather frames (tag 2) then reduce (tag 4).
	var dGather, dReduce feDriver
	for _, f := range d.recv {
		if f.H.Tag == 2 {
			dGather.recv = append(dGather.recv, f)
		} else {
			dReduce.recv = append(dReduce.recv, f)
		}
	}
	all, err := dGather.gatherAtFE(n)
	if err != nil {
		t.Fatal(err)
	}
	for rk, blob := range all {
		if string(blob) != "seed"+string(byte(rk)) {
			t.Fatalf("rank %d gathered %q", rk, blob)
		}
	}
	for rk, blob := range gotSecond {
		if !bytes.Equal(blob, second) {
			t.Fatalf("rank %d second broadcast %q", rk, blob)
		}
	}
	red, err := dReduce.reduceAtFE()
	if err != nil {
		t.Fatal(err)
	}
	if len(red) != n {
		t.Fatalf("reduce concat %d bytes", len(red))
	}
}

func TestPlaneGatherPerLinkFramesBounded(t *testing.T) {
	// Every FE-bound frame respects the chunk bound — never a monolithic
	// K-entry payload.
	const n, fanout, chunk = 23, 4, 128
	d := &feDriver{}
	planeRig(t, n, fanout, chunk, d, func(pl *Plane, c *Comm) error {
		return pl.Gather(bytes.Repeat([]byte{1}, 100))
	})
	if len(d.recv) < 1 || len(d.recv) > n {
		t.Fatalf("%d frames at the root for %d daemons", len(d.recv), n)
	}
	for _, f := range d.recv {
		if len(f.Body) > chunk+120 {
			t.Fatalf("root-bound frame of %d bytes exceeds chunk bound", len(f.Body))
		}
	}
}

func TestPlaneGatherCoalescesSmallEntries(t *testing.T) {
	// Interior nodes re-pack small contributions: the message count on
	// the root link is bounded by payload-bytes/chunk, not the daemon
	// count — the tree's whole point at scale.
	const n, fanout, chunk = 64, 4, 4096
	d := &feDriver{}
	planeRig(t, n, fanout, chunk, d, func(pl *Plane, c *Comm) error {
		return pl.Gather(bytes.Repeat([]byte{byte(c.Rank())}, 16))
	})
	// 64 entries x 24 bytes ≈ 1.5 KiB: a handful of frames, far fewer
	// than one per daemon.
	if len(d.recv) > 8 {
		t.Fatalf("%d root-bound frames for %d daemons at %d B/entry — not coalescing", len(d.recv), n, 16)
	}
	if _, err := d.gatherAtFE(n); err != nil {
		t.Fatal(err)
	}
}

// TestPlaneUnknownReduceFilter: a Reduce naming a filter the plane does not
// keep fails at every rank with an error naming it, and puts no frame of
// its tag on any link: the next Reduce's stream is the only one the tree
// and the front end see.
func TestPlaneUnknownReduceFilter(t *testing.T) {
	const n, fanout, bad = 13, 3, "topk:4"
	tags := map[uint32]bool{}
	sortHook = func(_ *linkDemux, msg []byte) {
		raw := msg[4:]
		switch binary.BigEndian.Uint32(raw) {
		case opCollChunk, opCollEnd:
			if f, err := parseFrameOp(raw, opCollChunk, opCollEnd); err == nil {
				tags[f.H.Tag] = true
			}
		case opCredit:
			if f, err := parseCredit(raw); err == nil {
				tags[f.H.Tag] = true
			}
		}
	}
	defer func() { sortHook = nil }()
	d := &feDriver{}
	planeRig(t, n, fanout, 0, d, func(pl *Plane, c *Comm) error {
		if err := pl.Reduce([]byte{1}, bad); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
			return fmt.Errorf("reduce with %q: %v, want an error naming it", bad, err)
		}
		return pl.Reduce(make([]byte, 8), "sum")
	})
	for _, f := range d.recv {
		tags[f.H.Tag] = true
	}
	if len(tags) != 1 {
		t.Fatalf("frames of tags %v on the links, want only the sum's", tags)
	}
	if out, err := d.reduceAtFE(); err != nil || len(out) != 8 {
		t.Fatalf("sum after the failed reduce: %x, %v", out, err)
	}
}
