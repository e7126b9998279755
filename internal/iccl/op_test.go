package iccl

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
)

// Every Plane operation is one planeOp per rank, run where its frames and
// credits arrive (collective.go). What must survive the goroutine loops it
// replaced is everything they did in virtual time — the same instants,
// combine charges included, and the same failures; what must be gone is
// the wake per frame and per credit.

const opChunk = 64

// opPayload is eight chunks: every raw stream outlasts a window of 4.
var opPayload = relayPayload(8, opChunk)

// opPart is rank rk's gather contribution: one chunk.
func opPart(rk int) []byte { return bytes.Repeat([]byte{byte(rk + 1)}, opChunk) }

// planeOpCase is one Plane operation as every rank of a 13-rank tree runs
// it: fe is what the root's front end sends down (nil for none), call the
// operation — lockstep for tag 0, else tagged — checking what it returns.
// A tree operation (AllGather, AllReduce) is lockstep only, in the tree's
// own sequence.
type planeOpCase struct {
	name string
	fe   func(tag uint32) []coll.Frame
	call func(pl *Plane, tag uint32, rank int) error
	tree bool
}

var planeOpCases = []planeOpCase{
	{"Broadcast", func(tag uint32) []coll.Frame {
		return coll.RawFrames(coll.OpBroadcast, tag, "", opPayload, opChunk)
	}, func(pl *Plane, tag uint32, _ int) (err error) {
		var got []byte
		if tag == 0 {
			got, err = pl.Broadcast()
		} else {
			got, err = pl.BroadcastTag(tag)
		}
		if err == nil && !bytes.Equal(got, opPayload) {
			err = fmt.Errorf("broadcast delivered another payload")
		}
		return err
	}, false},
	{"Gather", nil, func(pl *Plane, tag uint32, rank int) error {
		if tag == 0 {
			return pl.Gather(opPart(rank))
		}
		return pl.GatherTag(tag, opPart(rank))
	}, false},
	{"Reduce", nil, func(pl *Plane, tag uint32, _ int) error {
		if tag == 0 {
			return pl.Reduce(opPayload, "concat")
		}
		return pl.ReduceTag(tag, opPayload, "concat")
	}, false},
	{"AllGather", nil, func(pl *Plane, _ uint32, rank int) error {
		all, err := pl.AllGather(opPart(rank))
		for rk := 0; err == nil && rk < wireN; rk++ {
			if len(all) != wireN || !bytes.Equal(all[rk], opPart(rk)) {
				err = fmt.Errorf("allgather table wrong at rank %d", rk)
			}
		}
		return err
	}, true},
	{"AllReduce", nil, func(pl *Plane, _ uint32, _ int) error {
		got, err := pl.AllReduce(opPayload, "sum")
		if err == nil && len(got) != len(opPayload) {
			err = fmt.Errorf("allreduce returned %d bytes", len(got))
		}
		return err
	}, true},
}

// opTag is the stream tag of oc at every rank: tagged, relayTag; lockstep,
// the first of its sequence.
func opTag(oc planeOpCase, tagged bool) uint32 {
	switch {
	case tagged:
		return relayTag
	case oc.tree:
		return coll.MaxUserTag + 1
	}
	return 1
}

// opsDone is when the last rank of TestPlaneOpsParkOncePerRank left each
// operation, from relayAt, under windows 4 and 1 at every rank: the instants
// of goroutine loops (every up phase a loop, every combine charge a Compute)
// with the root waiting on its window like every rank, less the end-marker
// charges (150 µs each) that a last chunk carrying its End takes off every
// operation. The credit a Tail does not earn would have reached
// a sender with nothing left to send, ahead of no frame its link still
// charges, so the Tail rule moves none of them.
var opsDone = map[string][2]time.Duration{
	"Broadcast": {1410181, 2880971},
	"Gather":    {810201, 3601329},
	"Reduce":    {17400694, 42313480},
	"AllGather": {6090644, 16925899},
	"AllReduce": {9631092, 24307575},
}

// TestPlaneOpsParkOncePerRank is the guard of "a daemon waits once per
// operation": every operation, lockstep and (but for a tree operation)
// tagged, on 13 ranks of fanout
// 3, entered by all of them at one instant. Each rank waits for something,
// so the counts below, one per rank that may wait, mean one wait each: the
// front end's frames are pushed into the root before it enters, and it
// waits once for its children's credits, or elsewhere for their streams; in
// a Gather the nine leaves' one-chunk streams have room in the window and
// they do not wait at all. The combine charges stay where they were: the
// last rank leaves at the instant opsDone pins.
func TestPlaneOpsParkOncePerRank(t *testing.T) {
	for _, oc := range planeOpCases {
		for _, tagged := range []bool{false, true} {
			if tagged && oc.tree {
				continue
			}
			for wi, window := range []int{4, 1} {
				name := oc.name
				if tagged {
					name += "Tag"
				}
				t.Run(fmt.Sprintf("%s/window%d", name, window), func(t *testing.T) {
					parks, last := runPlaneOp(t, oc, opTag(oc, tagged), tagged, window)
					want := uint64(wireN)
					if oc.name == "Gather" {
						want = 1 + wireFanout // the root and the interior ranks
					}
					if parks != want {
						t.Errorf("%d parks, want %d: one per rank that waits", parks, want)
					}
					if want := opsDone[oc.name][wi]; last != want {
						t.Errorf("the last rank left %v after the start, pinned %v", last, want)
					}
				})
			}
		}
	}
}

// runPlaneOp runs oc on every rank at relayAt and returns the simulation's
// parks from then until the last rank left it, and when that was.
func runPlaneOp(t *testing.T, oc planeOpCase, tag uint32, tagged bool, window int) (parks uint64, last time.Duration) {
	t.Helper()
	r := newRelayRig(t, wireN)
	d := &feDriver{}
	if oc.fe != nil {
		d.send = oc.fe(tag)
	}
	var before, after uint64
	r.sim.After(relayAt-time.Millisecond, func() { before = r.sim.Parks() })
	r.run(t, wireFanout, func(c *Comm, p *cluster.Proc) error {
		pl := d.plane(c, opChunk, window)
		if err := warmUp(c); err != nil {
			return err
		}
		sim := p.Sim()
		sim.Sleep(relayAt - sim.Now())
		callTag := uint32(0)
		if tagged {
			callTag = tag
		}
		err := oc.call(pl, callTag, c.Rank())
		last, after = max(last, sim.Now()-relayAt), max(after, sim.Parks())
		return err
	})
	for i, err := range r.errs {
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
	}
	return after - before, last
}

// TestOpLinkDiesMidStream kills a link of interior rank 1 (parent 0,
// children 4, 5 and 6 on the 13-rank fanout-3 tree, window 1) in the middle
// of each kind of operation, in two states. Waiting: rank 1 waits for a
// frame — from the link that dies, or from elsewhere before it needs that
// link. Stalled: a stream of the operation at rank 1 sits behind an empty
// window when the link dies — rank 1's own, the parent's held back by rank
// 1 not yet in the operation, or a child's rank 1 has not reached. Held
// ranks enter 40 ms
// after the others, the link dies at 20 ms, and a broadcast's front end
// pauses in between. Whichever way rank 1 finds
// out, its operation ends once, with ErrSevered naming rank, op and tag;
// every rank's call returns once; nothing of the stream is left at rank 1;
// every goroutine ends. The front end's link is the root's parent link: in
// the fe_link rows it is the root's front end that is lost, during that
// pause of a broadcast, and the same holds at the root.
func TestOpLinkDiesMidStream(t *testing.T) {
	const window = 1
	const killAt, resumeAt = relayAt + 20*time.Millisecond, relayAt + 40*time.Millisecond
	type state struct {
		hold   []int // the ranks that enter at resumeAt
		pause  bool  // the root's front end pauses until resumeAt
		kill   int   // the node that dies at killAt
		feDies bool  // instead, the root's front-end connection does
	}
	type states map[string]state
	// An up phase waits for its children, and stalls on its parent's window
	// or holds a child's stream — one chunk for an entry stream, which
	// therefore has to be cut off before it ends; a down phase waits for its
	// parent, whose stream stalls while rank 1 stays out.
	raw := states{
		"parent_link/waiting": {hold: []int{5}, kill: 0},
		"parent_link/stalled": {hold: []int{0}, kill: 0},
		"child_link/waiting":  {hold: []int{4}, kill: 4},
		"child_link/stalled":  {hold: []int{4}, kill: 6},
	}
	entries := states{
		"parent_link/waiting": raw["parent_link/waiting"],
		"parent_link/stalled": raw["parent_link/stalled"],
		"child_link/waiting":  raw["child_link/waiting"],
		"child_link/stalled":  {hold: []int{0, 6}, kill: 6},
	}
	late := states{
		"parent_link/stalled": {hold: []int{1}, kill: 0},
		"child_link/stalled":  {hold: []int{1}, kill: 4},
	}
	feLost := state{pause: true, feDies: true}
	down := states{
		"parent_link/waiting": {pause: true, kill: 0},
		"parent_link/stalled": late["parent_link/stalled"],
		"child_link/waiting":  {pause: true, kill: 4},
		"child_link/stalled":  late["child_link/stalled"],
		"fe_link/waiting":     feLost,
	}
	// AllGather and AllReduce wait for the table or result from above while
	// another subtree holds the root up.
	allOf := func(up states) states {
		s := states{"parent_link/waiting": {hold: []int{2}, kill: 0}}
		for _, k := range []string{"parent_link/stalled", "child_link/waiting", "child_link/stalled"} {
			s[k] = up[k]
		}
		return s
	}
	kinds := []struct {
		oc     planeOpCase
		tagged bool
		states states
	}{
		{planeOpCases[0], false, down},           // Broadcast
		{planeOpCases[1], false, entries},        // Gather
		{planeOpCases[2], true, raw},             // ReduceTag
		{planeOpCases[3], false, allOf(entries)}, // AllGather
		{planeOpCases[4], false, allOf(raw)},     // AllReduce
	}
	for _, k := range kinds {
		for _, key := range []string{"parent_link/waiting", "parent_link/stalled", "child_link/waiting", "child_link/stalled", "fe_link/waiting"} {
			st, ok := k.states[key]
			if !ok {
				continue
			}
			k := k
			name := k.oc.name
			if k.tagged {
				name += "Tag"
			}
			t.Run(name+"/"+key, func(t *testing.T) {
				tag := opTag(k.oc, k.tagged)
				r := newRelayRig(t, wireN)
				d := &feDriver{}
				if k.oc.fe != nil {
					d.send = k.oc.fe(tag)
				}
				if st.pause {
					d.pause, d.resume = 4, resumeAt
				}
				// The rank whose link dies: rank 1, or the root for its front end's.
				lost, root := 1, (*Plane)(nil)
				if st.feDies {
					lost = 0
				}
				r.sim.After(killAt, func() {
					if st.feDies {
						root.FailFE(errors.New("front end connection lost"))
					} else {
						r.cl.KillNode(st.kill)
					}
				})
				live := -1
				r.sim.After(relayAt+time.Second, func() { live = r.sim.Live() })
				returns, left := make([]int, wireN), -1
				r.run(t, wireFanout, func(c *Comm, p *cluster.Proc) error {
					pl := d.plane(c, opChunk, window)
					if c.IsMaster() {
						root = pl
					}
					if err := warmUp(c); err != nil {
						return err
					}
					at := relayAt
					if slices.Contains(st.hold, c.Rank()) {
						at = resumeAt
					}
					sim := p.Sim()
					sim.Sleep(at - sim.Now())
					callTag := uint32(0)
					if k.tagged {
						callTag = tag
					}
					err := k.oc.call(pl, callTag, c.Rank())
					returns[c.Rank()]++
					if c.Rank() == lost {
						left = backlogAt(pl, tag)
					}
					return err
				})
				err := r.errs[lost]
				if !errors.Is(err, ErrSevered) {
					t.Fatalf("rank %d returned %v, want a wrapped ErrSevered", lost, err)
				}
				for _, want := range []string{fmt.Sprintf("rank %d:", lost), strings.ToLower(k.oc.name), fmt.Sprintf("tag %d", tag)} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("rank %d's error %q does not name %q", lost, err, want)
					}
				}
				for rk, n := range returns {
					if n != 1 {
						t.Errorf("rank %d's call returned %d times, want once", rk, n)
					}
				}
				if left != 0 {
					t.Errorf("rank %d left %d frames of the stream on its links", lost, left)
				}
				if live != 0 {
					t.Errorf("%d goroutines still alive a second after the operation began", live)
				}
			})
		}
	}
}

// TestPlaneFaultSweep is the plane's fault sweep (DESIGN.md "Fault sweep"):
// each kind of operation at window 1, ReduceTag tagged and the rest
// lockstep, entered by every rank of the 13-rank fan-out 3 tree at relayAt,
// counts the scheduler events from there until the last rank leaves it, and
// a replay per event loses the node of rank 0, 1, 4 or 12 — the root, an
// interior rank, a leaf under it, the last leaf — or the root's front end,
// before that event fires. Every rank's call returns once; a rank that
// fails does so with ErrSevered naming its rank, the operation and the tag;
// no rank keeps frames of the tag on its links; and no goroutine is left a
// second after the operation began. Every event in tier-1, every 37th
// under the race detector.
func TestPlaneFaultSweep(t *testing.T) {
	stride := uint64(1)
	if raceEnabled {
		stride = 37
	}
	for _, oc := range planeOpCases {
		oc, tagged := oc, oc.name == "Reduce"
		t.Run(oc.name, func(t *testing.T) {
			t.Parallel()
			_, events := sweepPlaneOp(t, oc, tagged, ^uint64(0), -1)
			for at := uint64(0); at <= events; at += stride {
				for _, victim := range []int{0, 1, 4, 12, -1} {
					if bad, _ := sweepPlaneOp(t, oc, tagged, at, victim); bad != "" {
						t.Fatalf("node of rank %d (-1: the root's front end) lost before event %d of %d: %s", victim, at, events, bad)
					}
				}
			}
		})
	}
}

// sweepPlaneOp runs oc on every rank with victim's node lost (-1: the root's
// front end) before event at, counted from relayAt, and returns what broke
// the sweep's oracle ("" for nothing) and how many events the operation took.
func sweepPlaneOp(t *testing.T, oc planeOpCase, tagged bool, at uint64, victim int) (bad string, events uint64) {
	tag, callTag := opTag(oc, tagged), uint32(0)
	if tagged {
		callTag = tag
	}
	r, d, root, base := newRelayRig(t, wireN), &feDriver{}, (*Plane)(nil), uint64(0)
	if oc.fe != nil {
		d.send = oc.fe(tag)
	}
	r.sim.After(relayAt, func() {
		base = r.sim.Stats().Events
		r.sim.AtEvent(base+at, func() {
			if victim < 0 {
				root.FailFE(errors.New("front end connection lost"))
			} else {
				r.cl.KillNode(victim)
			}
		})
	})
	live := -1
	r.sim.After(relayAt+time.Second, func() { live = r.sim.Live() })
	returns, left := make([]int, wireN), make([]int, wireN)
	r.run(t, wireFanout, func(c *Comm, p *cluster.Proc) error {
		pl := d.plane(c, opChunk, 1)
		if c.IsMaster() {
			root = pl
		}
		if err := warmUp(c); err != nil {
			return err
		}
		p.Sim().Sleep(relayAt - p.Sim().Now())
		err := oc.call(pl, callTag, c.Rank())
		returns[c.Rank()]++
		left[c.Rank()] = backlogAt(pl, tag)
		events = max(events, p.Sim().Stats().Events-base)
		return err
	})
	for rk, err := range r.errs {
		if returns[rk] != 1 || left[rk] != 0 {
			return fmt.Sprintf("rank %d's call returned %d times, leaving %d frames of tag %d", rk, returns[rk], left[rk], tag), events
		}
		for _, want := range []string{fmt.Sprintf("rank %d:", rk), strings.ToLower(oc.name), fmt.Sprintf("tag %d", tag)} {
			if err != nil && (!errors.Is(err, ErrSevered) || !strings.Contains(err.Error(), want)) {
				return fmt.Sprintf("rank %d returned %v, want ErrSevered naming %q", rk, err, want), events
			}
		}
	}
	if live != 0 {
		return fmt.Sprintf("%d goroutines alive a second after the operation began", live), events
	}
	return "", events
}

// backlogAt is how many frames of tag wait on the links of pl's rank, the
// root's front end's included.
func backlogAt(pl *Plane, tag uint32) (n int) {
	o := planeOp{pl: pl}
	for slot := above; slot < len(pl.c.children); slot++ {
		d := o.link(slot)
		d.mu.Lock()
		if s := d.find(tag); s != nil {
			n += len(s.q) - s.head
		}
		d.mu.Unlock()
	}
	return n
}
