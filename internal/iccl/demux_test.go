package iccl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
	"launchmon/internal/proctab"
	"launchmon/internal/vtime"
)

// The link demux replaced a serial reader per link (a framer feeding a
// parked router goroutine); what must survive is that reader's charging:
// every frame but a heartbeat is delivered at max(arrival, busyUntil) +
// PerMsgCost, a heartbeat uncharged at max(arrival, busyUntil), whichever
// of ShareLinks / the first plane operation installed the demux. The same
// framer (SerialFramer) owns every rank's parent link while the seed is in
// flight; there the reader it stands in for is written out below
// (runSeedScript) as a goroutine that block-reads the link and charges each
// frame, and the two must deliver at the same instants.

type linkFrame int

const (
	frHeartbeat linkFrame = iota
	frBase
	frChunk
	frEnd
	frCredit
)

// demuxScript is what rank 1 writes to its parent link, as offsets from
// scriptStart: bursts that queue behind the busy horizon, and lone frames
// that find the link idle.
var demuxScript = []struct {
	at    time.Duration
	frame linkFrame
}{
	{0, frBase}, {0, frChunk}, {0, frHeartbeat}, {0, frCredit}, {0, frChunk},
	{2000 * time.Microsecond, frHeartbeat},
	{2050 * time.Microsecond, frBase},
	{2100 * time.Microsecond, frHeartbeat},
	{2120 * time.Microsecond, frEnd},
	{5000 * time.Microsecond, frCredit}, {5000 * time.Microsecond, frBase},
}

const (
	scriptStart = time.Second
	scriptTag   = coll.MinUserTag + 7
)

// runDemuxScript bootstraps a 3-rank tree, installs the demux and runs one
// tree barrier (warmUp; ShareLinks first when share is set), and has rank 1
// play demuxScript at rank 0, closing its link right behind the last frame. With probe set, rank 0 swaps the
// demux's framer for a recorder of raw arrival instants and the result is
// those; otherwise it is the delivery instants per queue.
func runDemuxScript(t *testing.T, share, probe bool) (arrivals []time.Duration, got map[string][]time.Duration, cost time.Duration) {
	t.Helper()
	sim := vtime.New()
	sim.SetSpawnObserver(func(name string) {
		if strings.HasPrefix(name, "iccl-router-") {
			t.Errorf("plane operation spawned %s", name)
		}
	})
	got = map[string][]time.Duration{}
	rigOn(t, sim, 3, 2, func(c *Comm, p *cluster.Proc) error {
		if share {
			c.ShareLinks()
		}
		if err := warmUp(c); err != nil {
			return err
		}
		switch c.Rank() {
		case 0:
			cost = PerMsgCost
			conn := c.children[0]
			if probe {
				conn.Unhandle()
				conn.Handle(func(_ []byte, err error) {
					if err == nil {
						arrivals = append(arrivals, sim.Now())
					}
				})
			} else {
				d := c.demux(0)
				d.queue(&d.hb).Handle(func(_ []byte, ok bool) {
					if ok {
						got["hb"] = append(got["hb"], sim.Now())
					}
				})
				d.queue(&d.base).Handle(func(_ []byte, ok bool) {
					if ok {
						got["base"] = append(got["base"], sim.Now())
					}
				})
				// Tagged frames and credits are handed to their record the
				// instant the framer delivers them.
				sortHook = func(at *linkDemux, msg []byte) {
					if at != d {
						return
					}
					switch binary.BigEndian.Uint32(msg[4:]) {
					case opCollChunk, opCollEnd:
						got["tag"] = append(got["tag"], sim.Now())
					case opCredit:
						got["credit"] = append(got["credit"], sim.Now())
					}
				}
				defer func() { sortHook = nil }()
			}
			sim.Sleep(2 * scriptStart)
		case 1:
			idx := uint32(0)
			for _, it := range demuxScript {
				sim.Sleep(scriptStart + it.at - sim.Now())
				var err error
				switch it.frame {
				case frHeartbeat:
					err = lmonp.WriteFrame(c.parent, lmonp.AppendUint32(nil, opHeartbeat))
				case frBase:
					err = lmonp.WriteFrame(c.parent, lmonp.AppendUint32(nil, opFold))
				case frChunk, frEnd:
					f := coll.Frame{H: coll.Header{Op: coll.OpGather, Tag: scriptTag, Index: idx}, Body: []byte("chunk")}
					if f.End = it.frame == frEnd; f.End {
						f.Body = nil
					}
					idx++
					_, err = writeFrameOp(c.parent, opCollChunk, opCollEnd, f)
				case frCredit:
					err = (&planeOp{pl: &Plane{c: c}, tag: scriptTag}).sendCredit(c.parent)
				}
				if err != nil {
					return err
				}
			}
		}
		return nil
	})
	return arrivals, got, cost
}

func TestLinkDemuxChargesLikeASerialReader(t *testing.T) {
	for _, share := range []bool{true, false} {
		t.Run(fmt.Sprintf("sharelinks_first=%v", share), func(t *testing.T) {
			arrivals, _, cost := runDemuxScript(t, share, true)
			if len(arrivals) != len(demuxScript) {
				t.Fatalf("probe saw %d arrivals, script has %d frames", len(arrivals), len(demuxScript))
			}
			// The serial reader's model, from the probed arrival instants.
			want := map[string][]time.Duration{}
			var busyUntil time.Duration
			for i, it := range demuxScript {
				at := max(arrivals[i], busyUntil)
				q := "hb"
				if it.frame != frHeartbeat {
					at += cost
					busyUntil = at
					q = map[linkFrame]string{frBase: "base", frChunk: "tag", frEnd: "tag", frCredit: "credit"}[it.frame]
				}
				want[q] = append(want[q], at)
			}
			if want["hb"][0] == arrivals[2] || want["hb"][1] != arrivals[5] {
				t.Fatalf("script does not exercise both a queued and an idle heartbeat: arrivals %v, want %v", arrivals, want)
			}
			_, got, _ := runDemuxScript(t, share, false)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("delivery instants\n got  %v\n want %v\n(arrivals %v, cost %v)", got, want, arrivals, cost)
			}
		})
	}
	t.Run("leaf_seed_stream", func(t *testing.T) { seedFramerMatchesReader(t, 2) })
	t.Run("interior_seed_stream", func(t *testing.T) { seedFramerMatchesReader(t, 3) })
}

// seedScript is when the root's seed source releases each frame (frame 0
// is the FEData preamble, the last the End marker), as offsets from
// scriptStart: a burst that queues behind the busy horizon, frames closer
// together than the per-message cost, and lone ones that find the link idle.
var seedScript = []time.Duration{
	0, 0, 0, 0,
	2000 * time.Microsecond, 2050 * time.Microsecond, 2120 * time.Microsecond,
	5000 * time.Microsecond, 5000 * time.Microsecond,
}

// seedScriptRoutes gives the script's table — two entries on node1 a chunk
// — a route that re-packs it at the root two entries a chunk and at rank 1
// one entry a chunk: every chunk rank 1 is handed makes its slice flush at
// least one chunk to its sink, so the sink is called at every instant rank 1
// is handed a frame, and at no other.
func seedScriptRoutes() (frames []coll.Frame, root, rank1 *SeedRouter) {
	var tab proctab.Table
	for i := 0; i < 2*(len(seedScript)-2); i++ {
		tab = append(tab, proctab.ProcDesc{Host: "node1", Exe: "app", Pid: 100 + i, Rank: i})
	}
	two, one := len(tab[:2].Encode()), len(tab[:1].Encode())
	frames = seedFrames(append([][]byte{[]byte("fedata")}, tab.EncodeChunks(two)...))
	frames[len(frames)-1].Total = uint64(len(tab))
	rankOf := func(host string) (int, bool) {
		var rk int
		_, err := fmt.Sscanf(host, "node%d", &rk)
		return rk, err == nil
	}
	return frames, &SeedRouter{RankOf: rankOf, ChunkBytes: two}, &SeedRouter{RankOf: rankOf, ChunkBytes: one}
}

// runSeedScript plays seedScript down a fanout-1 chain of n ranks and
// returns the instants rank 1 was handed its seed frames: a leaf with n=2,
// an interior rank with n=3 — the instants its sink was called at. With
// reference set rank 1 is the serial reader instead of the seed stream's
// framer — it block-reads its parent link, charging each frame — and
// forwards nothing, so n must be 2.
func runSeedScript(t *testing.T, n int, reference bool) (at []time.Duration) {
	t.Helper()
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	nodelist := make([]string, n)
	for i := range nodelist {
		nodelist[i] = cl.Node(i).Name()
	}
	frames, rootRoute, route := seedScriptRoutes()
	sim.Go("boot", func() {
		for i := 0; i < n; i++ {
			i := i
			if _, err := cl.Node(i).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
				cfg := Config{Rank: i, Size: n, Fanout: 1, Nodelist: nodelist, Port: 50010}
				if i == 1 && reference {
					c, err := Bootstrap(p, cfg)
					if err != nil {
						t.Errorf("rank %d: %v", i, err)
						return
					}
					defer c.Close()
					for op := uint32(opSeedChunk); op == opSeedChunk; {
						msg, err := c.parent.RecvMessage()
						var raw []byte
						if err == nil {
							raw, err = lmonp.FrameFromMessage(msg)
						}
						if err != nil {
							t.Errorf("rank %d: %v", i, err)
							return
						}
						p.Compute(PerMsgCost)
						at = append(at, sim.Now())
						op = binary.BigEndian.Uint32(raw)
					}
					return
				}
				feed := func(f *Forming) {
					for k, fr := range frames {
						fr := fr
						sim.After(scriptStart+seedScript[k]-sim.Now(), func() { f.Feed(fr) })
					}
				}
				rt := route
				if i == 0 {
					rt = rootRoute
				}
				c, err := bootSeeded(p, cfg, feed, rt, func(coll.Frame, proctab.Chunk) error {
					if now := sim.Now(); i == 1 && (len(at) == 0 || at[len(at)-1] != now) {
						at = append(at, now)
					}
					return nil
				}, nil)
				if err != nil {
					t.Errorf("rank %d: %v", i, err)
					return
				}
				c.Close()
			}}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	sim.Run()
	return at
}

// seedFramerMatchesReader is the seed-stream half of
// TestLinkDemuxChargesLikeASerialReader, rank 1 being one of n.
func seedFramerMatchesReader(t *testing.T, n int) {
	framer := runSeedScript(t, n, false)
	reader := runSeedScript(t, 2, true)
	if len(framer) != len(seedScript) {
		t.Fatalf("rank 1 saw %d of %d seed frames", len(framer), len(seedScript))
	}
	if !reflect.DeepEqual(framer, reader) {
		t.Errorf("delivery instants at rank 1\n framer         %v\n serial reader  %v", framer, reader)
	}
	queued, idle := false, false
	for i := 1; i < len(framer); i++ {
		queued = queued || framer[i]-framer[i-1] == PerMsgCost
		idle = idle || framer[i]-framer[i-1] > 2*PerMsgCost
	}
	if !queued || !idle {
		t.Errorf("script exercises queued=%v idle=%v deliveries: %v (cost %v)", queued, idle, framer, PerMsgCost)
	}
}

// TestUnknownOpcodeFailsTheLink injects a frame whose opcode no reader of a
// demuxed link takes, or a malformed status frame — truncated, its cause
// over maxStatus, or naming a rank outside the tree: it must fail the link
// at once, naming the opcode and the peer's rank, rather than wait in the
// base queue for a Comm collective that never reads it, and the next plane
// operation over the link must end with ErrSevered wrapping that failure.
func TestUnknownOpcodeFailsTheLink(t *testing.T) {
	status := func(rank uint32, phase, cause string) []byte {
		return lmonp.AppendString(lmonp.AppendString(lmonp.AppendUint32(lmonp.AppendUint32(nil, opStatus), rank), phase), cause)
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		op    uint32
	}{
		{"opcode 99", lmonp.AppendUint32(nil, 99), 99},
		{"truncated status", status(1, "ready", "EOF")[:14], opStatus},
		{"status cause over its bound", status(1, "ready", strings.Repeat("x", maxStatus+1)), opStatus},
		{"status names a rank outside the tree", status(2, "ready", "EOF"), opStatus},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := vtime.New()
			var linkErr, opErr error
			rigOn(t, sim, 2, 2, func(c *Comm, p *cluster.Proc) error {
				pl := c.NewPlane(0, 0, nil, nil)
				if err := warmUp(c); err != nil {
					return err
				}
				if c.Rank() == 1 {
					if err := lmonp.WriteFrame(c.parent, tc.frame); err != nil {
						return err
					}
					sim.Sleep(2 * time.Second) // the link stays up
					return nil
				}
				sim.Sleep(time.Second)
				linkErr = c.demux(0).failure()
				_, opErr = pl.AllGather(nil)
				return nil
			})
			if want := fmt.Sprintf("opcode %d from rank 1", tc.op); !errors.Is(linkErr, errProtocol) || !strings.Contains(fmt.Sprint(linkErr), want) {
				t.Fatalf("link after the frame: %v, want a protocol error with %q", linkErr, want)
			}
			if !errors.Is(opErr, ErrSevered) || !errors.Is(opErr, errProtocol) {
				t.Fatalf("allgather over the failed link: %v, want ErrSevered wrapping the protocol error", opErr)
			}
		})
	}
}

// TestStatusFrameFailsTheLinkWithItsCause: a rank that aborts sends its
// parent one status frame before its link ends; on a demuxed link it fails
// the link with the failure it relays, so a Comm collective over the link
// returns that — the rank, the phase and the cause — and not its own EOF.
func TestStatusFrameFailsTheLinkWithItsCause(t *testing.T) {
	sim := vtime.New()
	var opErr error
	rigOn(t, sim, 2, 2, func(c *Comm, p *cluster.Proc) error {
		if err := warmUp(c); err != nil {
			return err
		}
		if c.Rank() == 1 {
			c.Abort(errors.New("seed check failed"))
			return nil
		}
		opErr = c.Barrier()
		return nil
	})
	if want := "rank 1 (init): seed check failed"; !errors.Is(opErr, ErrSevered) || !strings.HasSuffix(fmt.Sprint(opErr), want) {
		t.Fatalf("barrier over an aborted child's link: %v, want ErrSevered ending in %q", opErr, want)
	}
}

// TestLinkStateSizeClasses pins what a daemon keeps per tree link and per
// communicator for the life of its session to their size classes, and what
// it keeps parked in a broadcast: the operation record, whose collective
// header (in a frame of every backlog too) holds the Tail bit in its padding.
// It also pins the records a rank makes once a call or a launch: a Comm
// call's walk, whose ready-wave count rides in the padding after its op, and
// a forming rank's record, which embeds one. TestDaemonHeapFootprint's 3 %
// cannot see a size class a daemon.
func TestLinkStateSizeClasses(t *testing.T) {
	for _, c := range []struct {
		name       string
		size, want uintptr
	}{
		{"linkDemux", unsafe.Sizeof(linkDemux{}), 96},
		{"Comm", unsafe.Sizeof(Comm{}), 112},
		{"coll.Header", unsafe.Sizeof(coll.Header{}), 40},
		{"broadcastOp", unsafe.Sizeof(broadcastOp{}), 320},
		{"walk", unsafe.Sizeof(walk{}), 288},
		{"Forming", unsafe.Sizeof(Forming{}), 576},
	} {
		if c.size > c.want {
			t.Errorf("%s is %d B, want at most %d (one size class)", c.name, c.size, c.want)
		}
	}
}
