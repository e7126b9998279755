package iccl

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/vtime"
)

// commCalls are Comm's five collectives, each run with arguments every rank
// can check the result of.
var commCalls = []struct {
	name string
	up   bool // it reads up from the children; otherwise down from the parent
	call func(c *Comm) error
}{
	{"Barrier", true, func(c *Comm) error { return c.Barrier() }},
	{"Broadcast", false, func(c *Comm) error {
		var in []byte
		if c.IsMaster() {
			in = []byte("seed")
		}
		got, err := c.Broadcast(in)
		if err == nil && string(got) != "seed" {
			err = fmt.Errorf("rank %d: broadcast delivered %q", c.Rank(), got)
		}
		return err
	}},
	{"Gather", true, func(c *Comm) error {
		all, err := c.Gather([]byte{byte(c.Rank())})
		for r, blob := range all {
			if err == nil && !bytes.Equal(blob, []byte{byte(r)}) {
				err = fmt.Errorf("gathered %v for rank %d", blob, r)
			}
		}
		return err
	}},
	{"FoldUp", true, func(c *Comm) error {
		got, err := c.FoldUp([]byte{1}, func(acc, next []byte) ([]byte, error) {
			if acc == nil {
				return next, nil
			}
			return []byte{acc[0] + next[0]}, nil
		})
		if err == nil && c.IsMaster() && int(got[0]) != c.Size() {
			err = fmt.Errorf("the fold counted %d of %d ranks", got[0], c.Size())
		}
		return err
	}},
	{"Scatter", false, func(c *Comm) error {
		var parts [][]byte
		if c.IsMaster() {
			for r := 0; r < c.Size(); r++ {
				parts = append(parts, []byte{byte(r)})
			}
		}
		got, err := c.Scatter(parts)
		if err == nil && !bytes.Equal(got, []byte{byte(c.Rank())}) {
			err = fmt.Errorf("rank %d: scattered %v", c.Rank(), got)
		}
		return err
	}},
}

// commRig forms an n-rank tree whose ranks start one scheduler event
// apiece, in rank order, so that no two daemons' goroutines ever run at
// once and the run's events — their instants and seqs — are a function of
// the program alone. body runs on every formed rank; it returns the
// simulation, run to its end.
func commRig(t *testing.T, n, fanout int, body func(c *Comm, p *cluster.Proc) error) *vtime.Sim {
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
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		p, err := cl.Node(i).SpawnSystemProc(cluster.Spec{Exe: "d", Hold: true, Main: func(p *cluster.Proc) {
			c, err := Bootstrap(p, Config{Rank: i, Size: n, Fanout: fanout, Nodelist: nodelist, Port: 50031})
			if err == nil {
				err = body(c, p)
				c.Close()
			}
			errs[i] = err
		}})
		if err != nil {
			t.Fatal(err)
		}
		sim.After(0, p.Start)
	}
	sim.Run()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	return sim
}

// sleepUntil parks p's goroutine until the instant at, which the tree's
// formation or the calls before must not have passed.
func sleepUntil(p *cluster.Proc, at time.Duration) error {
	now := p.Sim().Now()
	if now >= at {
		return fmt.Errorf("at %v, past the rig's instant %v", now, at)
	}
	p.Sim().Sleep(at - now)
	return nil
}

// TestCommCollectivesParkOncePerRank is the guard of one wait a call: every
// rank enters the call at one instant, on a flat tree and at fanout 4, on
// links read directly and demultiplexed, and each rank that has a frame to
// read — every rank in a Barrier, those with children in a Gather or a
// FoldUp, all but the root in a Broadcast or a Scatter — parks exactly
// once, while the rest never do: the charges and link wakes are its walk
// record's, not its goroutine's. The count is Sim.Parks() over the run less
// that of the same run without the call.
func TestCommCollectivesParkOncePerRank(t *testing.T) {
	const enter, leave = time.Second, 2 * time.Second
	for _, shape := range []struct{ n, fanout int }{{9, 0}, {21, 4}} {
		for _, demuxed := range []bool{false, true} {
			for _, cc := range commCalls {
				name := fmt.Sprintf("flat/K=%d/%s", shape.n, cc.name)
				if shape.fanout > 0 {
					name = fmt.Sprintf("fanout%d/K=%d/%s", shape.fanout, shape.n, cc.name)
				}
				if demuxed {
					name += "/demuxed"
				}
				t.Run(name, func(t *testing.T) {
					parks := func(call bool) uint64 {
						return commRig(t, shape.n, shape.fanout, func(c *Comm, p *cluster.Proc) error {
							if demuxed {
								c.demuxLinks()
							}
							if err := sleepUntil(p, enter); err != nil {
								return err
							}
							if call {
								if err := cc.call(c); err != nil {
									return err
								}
							}
							return sleepUntil(p, leave)
						}).Parks()
					}
					fanout := shape.fanout
					if fanout == 0 {
						fanout = shape.n
					}
					want := 0
					for r := 0; r < shape.n; r++ {
						switch {
						case cc.name == "Barrier", !cc.up && r > 0, cc.up && childCount(r, shape.n, fanout) > 0:
							want++
						}
					}
					if got := parks(true) - parks(false); got != uint64(want) {
						t.Errorf("the %d ranks' %s parked %d times, want %d: once for each rank that reads a link", shape.n, cc.name, got, want)
					}
				})
			}
		}
	}
}

// TestCommCollectivesFireTheRecordedEvents runs each of Comm's collectives
// on one 13-rank fanout-3 tree, on links read directly and then
// demultiplexed, and pins the run's event count and digest (vtime's
// Stats().Digest of every fired event's instant and seq) at the values the
// goroutine-per-call collectives fired: the walk record reads, charges and
// sends where the blocked goroutine did, so every event keeps its instant
// and its seq.
func TestCommCollectivesFireTheRecordedEvents(t *testing.T) {
	const n, fanout = 13, 3
	const direct, demuxed, end = time.Second, 2 * time.Second, 3 * time.Second
	sim := commRig(t, n, fanout, func(c *Comm, p *cluster.Proc) error {
		for _, at := range []time.Duration{direct, demuxed} {
			if err := sleepUntil(p, at); err != nil {
				return err
			}
			if at == demuxed {
				c.demuxLinks()
			}
			for _, cc := range commCalls {
				if err := cc.call(c); err != nil {
					return fmt.Errorf("%s: %w", cc.name, err)
				}
			}
		}
		return sleepUntil(p, end)
	})
	if st := sim.Stats(); st.Events != 540 || st.Digest != 0xed4537f4ec5595b8 {
		t.Errorf("the run fired %d events, digest %#x; recorded: 540, 0xed4537f4ec5595b8", st.Events, st.Digest)
	}
}
