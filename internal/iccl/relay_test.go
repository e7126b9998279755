package iccl

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/obs"
	"launchmon/internal/vtime"
)

// The down phase of Broadcast, AllGather and AllReduce is a downRelay the
// link demux drives on the scheduler (collective.go). What it replaced was
// a goroutine looping over recvTagged / sendMsg, woken once per frame; what
// must survive is everything that goroutine did in virtual time — the same
// instants, the same back-pressure, the same failures — and what must be
// gone is the wake per frame.

const (
	relayTag = coll.MinUserTag + 11
	relayAt  = 20 * time.Second // every rank is in the operation by then, unless a test holds it back
)

// relayRig is an n-rank tree whose daemons report their errors instead of
// failing the test, each with a metrics registry of its own.
type relayRig struct {
	sim  *vtime.Sim
	cl   *cluster.Cluster
	regs []*obs.Registry
	errs []error
}

func newRelayRig(t *testing.T, n int) *relayRig {
	t.Helper()
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	r := &relayRig{sim: sim, cl: cl, regs: make([]*obs.Registry, n), errs: make([]error, n)}
	for i := range r.regs {
		r.regs[i] = obs.NewRegistry()
	}
	return r
}

// run boots the tree and runs body on every rank, then the simulation.
func (r *relayRig) run(t *testing.T, fanout int, body func(c *Comm, p *cluster.Proc) error) {
	t.Helper()
	n := len(r.regs)
	nodelist := make([]string, n)
	for i := range nodelist {
		nodelist[i] = r.cl.Node(i).Name()
	}
	r.sim.Go("boot", func() {
		for i := 0; i < n; i++ {
			i := i
			if _, err := r.cl.Node(i).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
				c, err := Bootstrap(p, Config{
					Rank: i, Size: n, Fanout: fanout, Nodelist: nodelist, Port: 50021, Metrics: r.regs[i],
				})
				if err != nil {
					r.errs[i] = err
					return
				}
				defer c.Close()
				r.errs[i] = body(c, p)
			}}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	r.sim.Run()
}

// queuedOnParentLink is how many frames of the test's stream wait in c's
// parent-link tag queue.
func queuedOnParentLink(c *Comm) int {
	d := c.demux(above)
	d.mu.Lock()
	defer d.mu.Unlock()
	if s := d.find(relayTag); s != nil {
		return len(s.q) - s.head
	}
	return 0
}

// relayPayload is chunks chunks of chunk bytes.
func relayPayload(chunks, chunk int) []byte {
	b := make([]byte, chunks*chunk)
	for i := range b {
		b[i] = byte(i*31 + i/chunk)
	}
	return b
}

// warmUp installs c's link demuxes and runs the tree's barrier over them,
// so that every rank enters what follows with its links demultiplexed.
func warmUp(c *Comm) error {
	c.demuxLinks()
	return c.Barrier()
}

// broadcastAt is the body the relay tests share: a plane with the given
// window (the root's fed by the driver), a barrier over the installed link
// demuxes, then one BroadcastTag entered at the virtual instant at.
func broadcastAt(c *Comm, p *cluster.Proc, chunk, window int, d *feDriver, at time.Duration, want []byte) error {
	pl := d.plane(c, chunk, window)
	if err := warmUp(c); err != nil {
		return err
	}
	sim := p.Sim()
	if sim.Now() >= relayAt-time.Second {
		return fmt.Errorf("rank %d left the warm-up barrier at %v", c.Rank(), sim.Now())
	}
	sim.Sleep(at - sim.Now())
	got, err := pl.BroadcastTag(relayTag)
	if err == nil && !bytes.Equal(got, want) {
		err = fmt.Errorf("rank %d: broadcast delivered another payload", c.Rank())
	}
	return err
}

// TestBroadcastParksOncePerRank is the guard of "a daemon wakes once per
// down-phase collective, not once per frame": an eight-chunk BroadcastTag
// down a three-level tree blocks every rank exactly once, root, leaf or
// interior, whether the window lets the stream through or stalls the ranks
// that relay on every chunk. The root is given the whole stream before it
// enters, so it waits only for its children's credits; every rank has the
// one window of the tree (coll.Window).
func TestBroadcastParksOncePerRank(t *testing.T) {
	const chunk = 4 << 10
	payload := relayPayload(8, chunk)
	for _, window := range []int{4, 1} {
		t.Run(fmt.Sprintf("window%d", window), func(t *testing.T) {
			r := newRelayRig(t, wireN)
			d := &feDriver{send: coll.RawFrames(coll.OpBroadcast, relayTag, "", payload, chunk)}
			var before uint64
			r.sim.After(relayAt-time.Millisecond, func() { before = r.sim.Parks() })
			r.run(t, wireFanout, func(c *Comm, p *cluster.Proc) error {
				return broadcastAt(c, p, chunk, window, d, relayAt, payload)
			})
			for i, err := range r.errs {
				if err != nil {
					t.Fatalf("daemon %d: %v", i, err)
				}
			}
			if parks := r.sim.Parks() - before; parks != wireN {
				t.Errorf("%d parks for one broadcast on %d ranks, want one per rank", parks, wireN)
			}
		})
	}
}

// TestRelayFramesBeforeEntry: rank 1 of a seven-rank binary tree enters the
// broadcast long after the whole stream has arrived on its parent link, so
// the relay finds every frame in the tag queue and drains them on the
// daemon's goroutine at entry. Its children must be handed the same payload
// at the same instants as when a goroutine read that queue (relayBeforeEntryDone).
func TestRelayFramesBeforeEntry(t *testing.T) {
	const n, fanout, chunk, chunks, late = 7, 2, 64, 5, 10 * time.Millisecond
	payload := relayPayload(chunks, chunk)
	r := newRelayRig(t, n)
	d := &feDriver{send: coll.RawFrames(coll.OpBroadcast, relayTag, "", payload, chunk)}
	done := make([]time.Duration, n)
	r.run(t, fanout, func(c *Comm, p *cluster.Proc) error {
		at := relayAt
		if c.Rank() == 1 {
			at += late
		}
		if !c.IsMaster() {
			p.Sim().After(relayAt+late-time.Millisecond-p.Sim().Now(), func() {
				// One virtual ms before rank 1 enters: the stream lies whole
				// in its queue, and nothing has reached its children.
				queued := queuedOnParentLink(c)
				switch c.Rank() {
				case 1: // the last chunk carries the end marker
					if queued != chunks {
						t.Errorf("rank 1 holds %d of the stream's %d frames before it enters", queued, chunks)
					}
				case 3, 4:
					if queued != 0 {
						t.Errorf("rank %d was sent %d frames before rank 1 entered", c.Rank(), queued)
					}
				}
			})
		}
		err := broadcastAt(c, p, chunk, 0, d, at, payload)
		done[c.Rank()] = p.Sim().Now() - relayAt
		return err
	})
	for i, err := range r.errs {
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
	}
	for rk, want := range relayBeforeEntryDone {
		if done[rk] != want {
			t.Errorf("rank %d left the broadcast %v after its start, pinned %v", rk, done[rk], want)
		}
	}
}

// relayBeforeEntryDone is when each rank of TestRelayFramesBeforeEntry
// left the broadcast, from relayAt: late rank 1 the instant it entered, its
// children 3 and 4 behind it, the punctual subtree of rank 2 long before.
// These are commit 1fbdc3c's blocking-loop instants less the end marker's
// reader charge (150 µs) at every rank but 0 and 1, which a last chunk
// carrying its End saves, plus 13 ns at leaves 5 and 6, whose idle
// readers see the 16 bytes it adds.
var relayBeforeEntryDone = [7]time.Duration{
	0, 10 * time.Millisecond, 780084 * time.Nanosecond,
	10780084 * time.Nanosecond, 10780084 * time.Nanosecond,
	960181 * time.Nanosecond, 960181 * time.Nanosecond,
}

// TestRelayStallsOnEmptyWindow: rank 5 — the middle child of interior rank
// 1 — enters a twelve-chunk broadcast late, so with a window of two its
// queue fills, rank 1's relay stalls on its gate with chunk 2 in hand, and
// must then take nothing more from its own parent: two chunks wait in rank
// 1's queue (the root's window), the child before the slow one has chunk 2,
// the one after it has not, and nothing moves until rank 5 returns a
// credit. Then everything completes, and no queue anywhere ever held more
// than the window.
func TestRelayStallsOnEmptyWindow(t *testing.T) {
	const chunk, chunks, window, slow, late = 64, 12, 2, 5, 50 * time.Millisecond
	payload := relayPayload(chunks, chunk)
	r := newRelayRig(t, wireN)
	d := &feDriver{send: coll.RawFrames(coll.OpBroadcast, relayTag, "", payload, chunk)}
	rx := func(rk int) uint64 { return r.regs[rk].Snapshot().Counters["iccl.rx.frames"] }
	var rx0 [wireN]uint64
	r.sim.After(relayAt-time.Millisecond, func() {
		for rk := range rx0 {
			rx0[rk] = rx(rk)
		}
	})
	comms := make([]*Comm, wireN)
	probe := func(when string) {
		queued := func(rk int) int { return queuedOnParentLink(comms[rk]) }
		// Leaves 4 and 6 receive nothing but the stream on their parent link.
		if got := rx(4) - rx0[4]; got != window+1 {
			t.Errorf("%s: rank 4, ahead of the slow child, has %d chunks, want the window's %d and the one in hand", when, got, window)
		}
		if got := rx(6) - rx0[6]; got != window {
			t.Errorf("%s: rank 6, behind the slow child, has %d chunks, want the window's %d", when, got, window)
		}
		if got := queued(slow); got != window {
			t.Errorf("%s: the slow child's queue holds %d chunks, want its window of %d", when, got, window)
		}
		if got := queued(1); got != window {
			t.Errorf("%s: stalled rank 1's queue holds %d chunks, want the root's window of %d", when, got, window)
		}
	}
	r.sim.After(relayAt+late/2, func() { probe("stalled") })
	r.sim.After(relayAt+late-time.Millisecond, func() { probe("still stalled") })
	r.run(t, wireFanout, func(c *Comm, p *cluster.Proc) error {
		comms[c.Rank()] = c
		at := relayAt
		if c.Rank() == slow {
			at += late
		}
		return broadcastAt(c, p, chunk, window, d, at, payload)
	})
	for i, err := range r.errs {
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
	}
	for rk, reg := range r.regs {
		if depth := reg.Snapshot().Gauges["coll.queue.depth.max"]; depth > window {
			t.Errorf("rank %d queue depth high-water %d exceeds window %d", rk, depth, window)
		}
	}
}

// TestRelayLinkDiesMidStream kills a link of interior rank 1 (seven ranks,
// binary tree: parent 0, children 3 and 4) in the middle of a twelve-chunk
// broadcast, in the two states a relay waits in. Idle: the root pauses
// after four chunks, so rank 1's relay has nothing in hand and its daemon
// is simply parked in the operation. Stalled: rank 4 stays out of the
// operation, so the relay holds a chunk on its gate. Either way the
// operation at rank 1 returns an error wrapping ErrSevered, leaves no frame
// behind in the tag queue, and every goroutine ends.
func TestRelayLinkDiesMidStream(t *testing.T) {
	const n, fanout, chunk, chunks, window = 7, 2, 64, 12, 2
	const killAt, resumeAt = relayAt + 20*time.Millisecond, relayAt + 40*time.Millisecond
	payload := relayPayload(chunks, chunk)
	for _, tc := range []struct {
		name    string
		kill    int  // the node that dies at killAt
		stalled bool // rank 4 holds its credits; else the root pauses mid-stream
	}{
		{"parent_link/idle", 0, false},
		{"parent_link/stalled", 0, true},
		{"child_link/idle", 4, false},
		{"child_link/stalled", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRelayRig(t, n)
			d := &feDriver{send: coll.RawFrames(coll.OpBroadcast, relayTag, "", payload, chunk)}
			if !tc.stalled {
				d.pause, d.resume = 4, resumeAt
			}
			r.sim.After(killAt, func() { r.cl.KillNode(tc.kill) })
			live := -1
			r.sim.After(relayAt+time.Second, func() { live = r.sim.Live() })
			returns, left := 0, -1
			r.run(t, fanout, func(c *Comm, p *cluster.Proc) error {
				at := relayAt
				if tc.stalled && c.Rank() == 4 {
					at = resumeAt + 20*time.Millisecond
				}
				err := broadcastAt(c, p, chunk, window, d, at, payload)
				if c.Rank() == 1 {
					returns++
					left = queuedOnParentLink(c)
				}
				return err
			})
			if err := r.errs[1]; !errors.Is(err, ErrSevered) {
				t.Errorf("rank 1's broadcast returned %v, want a wrapped ErrSevered", err)
			}
			if returns != 1 || left != 0 {
				t.Errorf("rank 1's broadcast returned %d times leaving %d frames in its tag queue, want once and none", returns, left)
			}
			for _, rk := range []int{3, 4} {
				if rk != tc.kill && r.errs[rk] == nil {
					t.Errorf("rank %d, below the broken relay, completed the broadcast", rk)
				}
			}
			if live != 0 {
				t.Errorf("%d goroutines still alive a second after the broadcast began", live)
			}
		})
	}
}

// TestFramerChargeDoesNotAllocate: a charged frame costs the framer no
// object — not on a link that keeps up (the frame lies in the framer), and
// not on one that runs a frame behind, as a chunk and its end marker do,
// once the first such burst has left its link of the spill list behind.
func TestFramerChargeDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	msg := make([]byte, 8)
	for _, tc := range []struct {
		name  string
		burst int // frames charged at once
	}{{"keeps_up", 1}, {"one_behind", 2}} {
		run := func(ops int) {
			sim := vtime.New()
			left := ops
			fr := &SerialFramer{Sim: sim, Cost: PerMsgCost}
			pending := 0
			charge := func() {
				for ; pending < tc.burst && left > 0; pending, left = pending+1, left-1 {
					fr.Charge(msg)
				}
			}
			fr.Deliver = func([]byte) {
				if pending--; pending == 0 {
					charge()
				}
			}
			sim.After(0, charge)
			sim.Run()
		}
		two := testing.AllocsPerRun(3, func() { run(4000) })
		one := testing.AllocsPerRun(3, func() { run(2000) })
		if per := (two - one) / 2000; per > 0.01 {
			t.Errorf("%s: a charged frame allocates %.2f objects in the framer, want 0", tc.name, per)
		}
	}
}

// TestLeafBroadcastAllocsOnePerFrame holds what a daemon allocates for an
// eight-chunk broadcast: on a two-rank tree one more broadcast costs the 10
// messages it builds (9 frames down, one credit frame sent back 8 times), the payload once at
// each rank, and beyond that less than one object per frame at each rank —
// relay, assembler and chunk list at both, the root's gate, the parker of
// its pause between operations, simnet's in-flight list growing under the
// root's burst — where the goroutine-per-frame path paid a closure and a
// parker for every frame at the leaf alone.
func TestLeafBroadcastAllocsOnePerFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const chunk, chunks = 4 << 10, 8
	payload := relayPayload(chunks, chunk)
	frames := coll.RawFrames(coll.OpBroadcast, 0, "", payload, chunk)
	run := func(ops int) {
		rig(t, 2, 2, func(c *Comm, p *cluster.Proc) error {
			pl := c.NewPlane(chunk, 0, nil, nil)
			for i := 0; i < ops; i++ {
				for j := 0; c.IsMaster() && j < len(frames); j++ {
					f := frames[j]
					f.H.Tag = uint32(i + 1) // broadcast i's lockstep tag
					pl.PushFE(f)
				}
				if got, err := pl.Broadcast(); err != nil || len(got) != len(payload) {
					return fmt.Errorf("rank %d broadcast %d: %d bytes, %v", c.Rank(), i, len(got), err)
				}
				if c.IsMaster() {
					// The root runs ahead of the leaf's reader; without a
					// pause the backlog, and the framer's ring, grow with ops.
					p.Sim().Sleep(5 * time.Millisecond)
				}
			}
			return nil
		})
	}
	const n = 50
	two := testing.AllocsPerRun(2, func() { run(2 * n) })
	one := testing.AllocsPerRun(2, func() { run(n) })
	per := (two - one) / n
	const messages, payloads, frameCount = chunks + 2, 2, chunks + 1
	t.Logf("one more 2-rank broadcast of %d frames allocates %.1f objects (%d of them messages)", frameCount, per, messages)
	if per > messages+payloads+2*frameCount {
		t.Errorf("a 2-rank broadcast allocates %.1f objects, want at most %d messages + %d payloads + one per frame and rank (%d)",
			per, messages, payloads, 2*frameCount)
	}
}
