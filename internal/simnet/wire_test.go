package simnet

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"launchmon/internal/vtime"
)

// What the wire FIFO must keep true: an arrival event carries no message of
// its own, it delivers the head of its direction's queue, so every way two
// events of one direction can tie or be lost is pinned here. The allocation
// guards at the bottom run in CI's `go test -run 'Alloc|Heap'` step.

// handledRig connects a→b with b's end handled: every callback is recorded
// as "len@instant" (or the error) in order. send runs on the dialing end
// once b's handler is installed.
func handledRig(t *testing.T, send func(n *Network, c *Conn)) (events []string, stats Stats) {
	t.Helper()
	sim := vtime.New()
	n, a, b := pair(t, sim, Options{})
	l, err := b.Listen(9000)
	if err != nil {
		t.Fatal(err)
	}
	l.Handle(func(c *Conn, err error) {
		if err != nil {
			return
		}
		c.Handle(func(msg []byte, err error) {
			if err != nil {
				events = append(events, fmt.Sprintf("%v@%v", err, sim.Now()))
				return
			}
			events = append(events, fmt.Sprintf("%d@%v", cap(msg), sim.Now()))
		})
	})
	sim.Go("client", func() {
		c, err := a.Dial(l.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		send(n, c)
	})
	sim.Run()
	return events, n.Stats()
}

// The link under Options{}: 30us one way, a dial is one round trip, and
// size bytes take wireTx(size) to serialize.
const (
	wireLat  = 30 * time.Microsecond
	dialDone = 2 * wireLat
)

func wireTx(size int) time.Duration {
	return time.Duration(float64(size) / 1.2e9 * float64(time.Second))
}

func TestZeroLengthMessagesArriveInSendOrder(t *testing.T) {
	// Zero-length messages take no time on the wire, so all eight arrive at
	// one instant and only the FIFO orders them; capacity tells them apart.
	events, stats := handledRig(t, func(_ *Network, c *Conn) {
		for i := 1; i <= 8; i++ {
			if err := c.Send(make([]byte, 0, i)); err != nil {
				t.Error(err)
			}
		}
	})
	var want []string
	for i := 1; i <= 8; i++ {
		want = append(want, fmt.Sprintf("%d@%v", i, dialDone+wireLat))
	}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("deliveries = %v, want %v", events, want)
	}
	if stats.Messages != 8 || stats.Bytes != 0 {
		t.Errorf("stats = %+v, want 8 messages of 0 bytes", stats)
	}
}

func TestCloseNeverOvertakesData(t *testing.T) {
	// After a zero-length message the end of the stream is due at the very
	// instant the message is; after a long one, one latency behind it.
	for _, size := range []int{0, 120000} {
		events, _ := handledRig(t, func(_ *Network, c *Conn) {
			if err := c.Send(make([]byte, size)); err != nil {
				t.Error(err)
			}
			c.Close()
		})
		at := dialDone + wireTx(size) + wireLat
		want := []string{fmt.Sprintf("%d@%v", size, at), fmt.Sprintf("%v@%v", io.EOF, at)}
		if !reflect.DeepEqual(events, want) {
			t.Errorf("size %d: deliveries = %v, want %v", size, events, want)
		}
	}
}

func TestSeverDeliversDataInFlightThenPeerDead(t *testing.T) {
	events, _ := handledRig(t, func(_ *Network, c *Conn) {
		for _, size := range []int{120000, 0, 1} {
			if err := c.Send(make([]byte, size)); err != nil {
				t.Error(err)
			}
		}
		c.Sever()
		if err := c.Send(nil); !errors.Is(err, ErrPeerDead) {
			t.Errorf("Send on a severed conn = %v, want ErrPeerDead", err)
		}
	})
	at := dialDone + wireTx(120000) + wireTx(1) + wireLat
	want := []string{
		fmt.Sprintf("120000@%v", at), fmt.Sprintf("0@%v", at), fmt.Sprintf("1@%v", at),
		fmt.Sprintf("%v@%v", ErrPeerDead, at),
	}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("deliveries = %v, want %v", events, want)
	}
}

func TestMessageCrossingADroppedLinkVanishes(t *testing.T) {
	// Three messages 10us apart; the link is down while the second is in
	// flight. It must vanish uncounted — and take its own place in the FIFO
	// with it, so the third is delivered as the third.
	events, stats := handledRig(t, func(n *Network, c *Conn) {
		sim := n.sim
		send := func(size int) {
			if err := c.Send(make([]byte, size)); err != nil {
				t.Error(err)
			}
		}
		send(1)
		sim.Sleep(10 * time.Microsecond)
		send(2)
		sim.Sleep(10 * time.Microsecond)
		send(3)
		sim.Sleep(15 * time.Microsecond) // 1 has arrived, 2 is 5us out
		n.DropLink("a", "b")
		sim.Sleep(7 * time.Microsecond) // 2 was lost, 3 is 3us out
		n.RestoreLink("a", "b")
	})
	want := []string{
		fmt.Sprintf("1@%v", dialDone+wireTx(1)+wireLat),
		fmt.Sprintf("3@%v", dialDone+20*time.Microsecond+wireTx(3)+wireLat),
	}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("deliveries = %v, want %v", events, want)
	}
	if stats.Messages != 2 || stats.Bytes != 4 {
		t.Errorf("stats = %+v, want the two delivered messages (4 bytes)", stats)
	}
}

// TestKillHostSeversInRegistrationOrder: node loss is a function of the
// node. Sixteen equal-latency peers hold a handled connection to one host;
// when it is killed they all learn at one virtual instant, and which of them
// reacts first is the order the connections were established in — in every
// run. (It was the iteration order of a Go map.)
func TestKillHostSeversInRegistrationOrder(t *testing.T) {
	const peers = 16
	run := func() []string {
		sim := vtime.New()
		n := New(sim, Options{})
		l, err := n.Host("victim").Listen(9000)
		if err != nil {
			t.Fatal(err)
		}
		l.Handle(func(*Conn, error) {})
		var seen []string
		sim.Go("boot", func() {
			for i := 0; i < peers; i++ {
				name := fmt.Sprintf("peer%02d", i)
				c, err := n.Host(name).Dial(l.Addr())
				if err != nil {
					t.Error(err)
					return
				}
				c.Handle(func(_ []byte, err error) {
					seen = append(seen, fmt.Sprintf("%s %v@%v", name, err, sim.Now()))
				})
			}
			n.KillHost("victim")
		})
		sim.Run()
		return seen
	}
	var want []string
	for i := 0; i < peers; i++ {
		want = append(want, fmt.Sprintf("peer%02d %v@%v", i, ErrPeerDead, peers*dialDone+wireLat))
	}
	for i := 0; i < 50; i++ {
		if got := run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: survivors reacted as %v, want %v", i, got, want)
		}
	}
}

// allocsPerOp reports how many objects one more operation costs: run(2n)
// against run(n), each a whole simulation, so set-up and the one-off growth
// of heaps and queues cancel.
func allocsPerOp(t *testing.T, n int, run func(ops int)) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	two := testing.AllocsPerRun(3, func() { run(2 * n) })
	one := testing.AllocsPerRun(3, func() { run(n) })
	return (two - one) / float64(n)
}

func TestSendToHandlerAllocsNothing(t *testing.T) {
	// Two handled ends bounce one buffer: Send, arrival, delivery to the
	// handler — the steady state of a tree link — with no object made.
	per := allocsPerOp(t, 2000, func(ops int) {
		sim := vtime.New()
		_, a, b := pair(t, sim, Options{})
		l, err := b.Listen(9000)
		if err != nil {
			t.Fatal(err)
		}
		bounce := func(c *Conn) {
			c.Handle(func(msg []byte, err error) {
				if ops--; err == nil && ops > 0 {
					c.Send(msg)
				}
			})
		}
		l.Handle(func(c *Conn, err error) {
			if err == nil {
				bounce(c)
			}
		})
		var c *Conn
		c, err = a.DialAsync(l.Addr(), eventFunc(func() {
			bounce(c)
			c.Send(make([]byte, 64))
		}))
		if err != nil {
			t.Fatal(err)
		}
		sim.Run()
	})
	if per > 0.01 {
		t.Errorf("a message to a handler allocates %.2f objects beyond its payload, want 0", per)
	}
}

func TestDialAndCloseAllocs(t *testing.T) {
	// The connection itself and the SYN's closure; the dialer's park for
	// the handshake reuses a pooled parker, and closing either end
	// allocates nothing.
	const want = 2
	per := allocsPerOp(t, 500, func(ops int) {
		sim := vtime.New()
		_, a, b := pair(t, sim, Options{})
		l, err := b.Listen(9000)
		if err != nil {
			t.Fatal(err)
		}
		l.Handle(func(c *Conn, err error) {
			if err == nil {
				c.Close()
			}
		})
		sim.Go("dialer", func() {
			for i := 0; i < ops; i++ {
				c, err := a.Dial(l.Addr())
				if err != nil {
					t.Error(err)
					return
				}
				c.Close()
			}
		})
		sim.Run()
	})
	if per > want+0.01 {
		t.Errorf("a Dial and the Close of both ends allocate %.2f objects, want %d", per, want)
	}
}

// TestConnPairSizeClass pins a connection — both endpoints, one allocation
// — to the 384 B size class: a parked daemon keeps one per tree link for the
// life of its session.
func TestConnPairSizeClass(t *testing.T) {
	if size := unsafe.Sizeof([2]Conn{}); size > 384 {
		t.Errorf("a connection is %d B, want at most 384 (one size class)", size)
	}
}

// eventFunc adapts a func to the vtime.Event DialAsync fires.
type eventFunc func()

func (f eventFunc) Fire() { f() }
