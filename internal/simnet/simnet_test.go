package simnet

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"launchmon/internal/vtime"
)

func pair(t *testing.T, sim *vtime.Sim, opts Options) (*Network, *Host, *Host) {
	t.Helper()
	n := New(sim, opts)
	return n, n.Host("a"), n.Host("b")
}

// recvAll receives messages until the connection ends and returns them
// joined, with nil for a clean end (io.ReadAll's contract over messages).
func recvAll(c *Conn) ([]byte, error) {
	var all []byte
	for {
		msg, err := c.RecvMessage()
		if err == io.EOF {
			return all, nil
		}
		if err != nil {
			return all, err
		}
		all = append(all, msg...)
	}
}

func TestDialAndEcho(t *testing.T) {
	sim := vtime.New()
	_, a, b := pair(t, sim, Options{})
	l, err := b.Listen(9000)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	sim.Go("server", func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		msg, err := c.RecvMessage()
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Write(msg); err != nil {
			t.Error(err)
		}
	})
	sim.Go("client", func() {
		c, err := a.Dial(Addr{Host: "b", Port: 9000})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Write([]byte("hello")); err != nil {
			t.Error(err)
			return
		}
		if got, err = c.RecvMessage(); err != nil {
			t.Error(err)
		}
	})
	sim.Run()
	if string(got) != "hello" {
		t.Fatalf("echo = %q", got)
	}
}

func TestDialLatencyCost(t *testing.T) {
	sim := vtime.New()
	lat := Latency
	_, a, b := pair(t, sim, Options{})
	l, _ := b.Listen(1)
	var dialDone, acceptAt time.Duration
	sim.Go("srv", func() {
		if _, err := l.Accept(); err == nil {
			acceptAt = sim.Now()
		}
	})
	sim.Go("cli", func() {
		if _, err := a.Dial(l.Addr()); err != nil {
			t.Error(err)
			return
		}
		dialDone = sim.Now()
	})
	sim.Run()
	if acceptAt != lat {
		t.Errorf("accept at %v, want %v", acceptAt, lat)
	}
	if dialDone != 2*lat {
		t.Errorf("dial returned at %v, want %v", dialDone, 2*lat)
	}
}

func TestDialNoListener(t *testing.T) {
	sim := vtime.New()
	_, a, _ := pair(t, sim, Options{})
	var err error
	sim.Go("cli", func() {
		_, err = a.Dial(Addr{Host: "b", Port: 77})
	})
	sim.Run()
	if err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestDialUnknownHost(t *testing.T) {
	sim := vtime.New()
	n := New(sim, Options{})
	a := n.Host("a")
	var err error
	sim.Go("cli", func() { _, err = a.Dial(Addr{Host: "ghost", Port: 1}) })
	sim.Run()
	if err == nil {
		t.Fatal("dial to unknown host succeeded")
	}
}

func TestMessageLatencyAndBandwidth(t *testing.T) {
	sim := vtime.New()
	lat := Latency
	_, a, b := pair(t, sim, Options{})
	l, _ := b.Listen(1)
	size := int(Bandwidth / 1e5) // 10 µs of transmission
	var recvAt time.Duration
	sim.Go("srv", func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		if msg, err := c.RecvMessage(); err != nil || len(msg) != size {
			t.Errorf("received %d bytes, %v; want %d", len(msg), err, size)
			return
		}
		recvAt = sim.Now()
	})
	sim.Go("cli", func() {
		c, err := a.Dial(l.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		c.Write(make([]byte, size))
	})
	sim.Run()
	// The dial completes after a round trip, then transmission and latency.
	want := 2*lat + 10*time.Microsecond + lat
	if recvAt != want {
		t.Fatalf("large message arrived at %v, want %v", recvAt, want)
	}
}

func TestBackToBackWritesSerialize(t *testing.T) {
	sim := vtime.New()
	lat := Latency
	_, a, b := pair(t, sim, Options{})
	l, _ := b.Listen(1)
	var lastAt time.Duration
	const msgs, size = 5, int(Bandwidth / 1e6) // each 1 µs of tx
	sim.Go("srv", func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		for i := 0; i < msgs; i++ {
			if _, err := c.RecvMessage(); err != nil {
				t.Error(err)
				return
			}
		}
		lastAt = sim.Now()
	})
	sim.Go("cli", func() {
		c, err := a.Dial(l.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < msgs; i++ {
			c.Write(make([]byte, size)) // non-blocking; must serialize on wire
		}
	})
	sim.Run()
	want := 2*lat + msgs*time.Microsecond + lat
	if lastAt != want {
		t.Fatalf("last byte at %v, want %v", lastAt, want)
	}
}

func TestLoopbackIsFaster(t *testing.T) {
	sim := vtime.New()
	n := New(sim, Options{})
	a := n.Host("a")
	l, _ := a.Listen(5)
	var dialDone time.Duration
	sim.Go("srv", func() { l.Accept() })
	sim.Go("cli", func() {
		if _, err := a.Dial(l.Addr()); err != nil {
			t.Error(err)
			return
		}
		dialDone = sim.Now()
	})
	sim.Run()
	if dialDone != 2*LoopbackLatency || LoopbackLatency >= Latency {
		t.Fatalf("loopback dial took %v, want %v", dialDone, 2*LoopbackLatency)
	}
}

func TestCloseDeliversEOFAfterData(t *testing.T) {
	sim := vtime.New()
	_, a, b := pair(t, sim, Options{})
	l, _ := b.Listen(1)
	var got []byte
	var readErr error
	sim.Go("srv", func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		got, readErr = recvAll(c)
	})
	sim.Go("cli", func() {
		c, err := a.Dial(l.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		c.Write([]byte("payload"))
		c.Close()
	})
	sim.Run()
	if readErr != nil {
		t.Fatal(readErr)
	}
	if string(got) != "payload" {
		t.Fatalf("got %q before EOF", got)
	}
}

func TestWriteAfterClose(t *testing.T) {
	sim := vtime.New()
	_, a, b := pair(t, sim, Options{})
	l, _ := b.Listen(1)
	var err error
	sim.Go("srv", func() { l.Accept() })
	sim.Go("cli", func() {
		c, derr := a.Dial(l.Addr())
		if derr != nil {
			t.Error(derr)
			return
		}
		c.Close()
		_, err = c.Write([]byte("x"))
	})
	sim.Run()
	if err == nil {
		t.Fatal("write after close succeeded")
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	sim := vtime.New()
	_, _, b := pair(t, sim, Options{})
	l, _ := b.Listen(1)
	var err error
	sim.Go("srv", func() { _, err = l.Accept() })
	sim.Go("closer", func() {
		sim.Sleep(time.Second)
		l.Close()
	})
	sim.Run()
	if err == nil {
		t.Fatal("Accept returned nil error after listener close")
	}
}

func TestEphemeralPortsDistinct(t *testing.T) {
	sim := vtime.New()
	_, _, b := pair(t, sim, Options{})
	seen := map[int]bool{}
	for i := 0; i < 10; i++ {
		l, err := b.Listen(0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[l.Addr().Port] {
			t.Fatalf("duplicate ephemeral port %d", l.Addr().Port)
		}
		seen[l.Addr().Port] = true
	}
}

// TestListenerTable holds a host's open listeners, kept in port order: each
// cell runs on a fresh two-host network inside a simulated goroutine.
func TestListenerTable(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(t *testing.T, n *Network, h *Host)
	}{
		{"ephemeral port skips an occupied one", func(t *testing.T, _ *Network, h *Host) {
			taken, err := h.Listen(int(h.nextPort))
			if err != nil {
				t.Fatal(err)
			}
			l, err := h.Listen(0)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := l.Addr().Port, taken.Addr().Port+1; got != want {
				t.Errorf("Listen(0) took port %d, want %d", got, want)
			}
		}},
		{"open port is in use", func(t *testing.T, _ *Network, h *Host) {
			if _, err := h.Listen(7000); err != nil {
				t.Fatal(err)
			}
			if _, err := h.Listen(7000); !errors.Is(err, errPortInUse) {
				t.Errorf("second Listen(7000) = %v, want %v", err, errPortInUse)
			}
		}},
		{"closed port can be listened on again", func(t *testing.T, _ *Network, h *Host) {
			l, err := h.Listen(7000)
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
			if _, err := h.Listen(7000); err != nil {
				t.Errorf("Listen(7000) after Close = %v", err)
			}
		}},
		{"dial to a closed port is refused", func(t *testing.T, n *Network, h *Host) {
			l, err := h.Listen(7000)
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
			if _, err := n.Host("a").Dial(l.Addr()); !errors.Is(err, errConnRefused) {
				t.Errorf("dial to a closed port = %v, want %v", err, errConnRefused)
			}
		}},
		{"KillHost closes listeners in port order", func(t *testing.T, n *Network, h *Host) {
			var closed []int
			for _, port := range []int{7000, 5000, 6000} {
				port := port
				l, err := h.Listen(port)
				if err != nil {
					t.Fatal(err)
				}
				l.Handle(func(_ *Conn, err error) {
					if err != nil {
						closed = append(closed, port)
					}
				})
			}
			n.KillHost(h.name)
			n.sim.Sleep(time.Millisecond) // the close callbacks run
			if want := []int{5000, 6000, 7000}; !slices.Equal(closed, want) {
				t.Errorf("KillHost closed ports %v, want %v", closed, want)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sim := vtime.New()
			n, _, b := pair(t, sim, Options{})
			sim.Go("cell", func() { c.run(t, n, b) })
			sim.Run()
		})
	}
}

func TestStatsCount(t *testing.T) {
	sim := vtime.New()
	n := New(sim, Options{})
	a, b := n.Host("a"), n.Host("b")
	l, _ := b.Listen(1)
	sim.Go("srv", func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		recvAll(c)
	})
	sim.Go("cli", func() {
		c, err := a.Dial(l.Addr())
		if err != nil {
			return
		}
		c.Write(make([]byte, 100))
		c.Write(make([]byte, 50))
		c.Close()
	})
	sim.Run()
	st := n.Stats()
	if st.Dials != 1 || st.Messages != 2 || st.Bytes != 150 {
		t.Fatalf("stats = %+v", st)
	}
}

// Property: an arbitrary sequence of writes arrives intact and in order.
func TestPropertyStreamIntegrity(t *testing.T) {
	f := func(seed int64, nMsgs uint8) bool {
		cnt := int(nMsgs%20) + 1
		rng := rand.New(rand.NewSource(seed))
		var sent bytes.Buffer
		chunks := make([][]byte, cnt)
		for i := range chunks {
			chunk := make([]byte, rng.Intn(4096)+1)
			rng.Read(chunk)
			chunks[i] = chunk
			sent.Write(chunk)
		}
		sim := vtime.New()
		n := New(sim, Options{})
		a, b := n.Host("a"), n.Host("b")
		l, _ := b.Listen(1)
		var got []byte
		sim.Go("srv", func() {
			c, err := l.Accept()
			if err != nil {
				return
			}
			got, _ = recvAll(c)
		})
		sim.Go("cli", func() {
			c, err := a.Dial(l.Addr())
			if err != nil {
				return
			}
			for _, ch := range chunks {
				c.Write(ch)
				if rng.Intn(2) == 0 {
					sim.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
				}
			}
			c.Close()
		})
		sim.Run()
		return bytes.Equal(got, sent.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: delivery time never decreases for successive messages on one
// connection (FIFO in virtual time).
func TestPropertyFIFODelivery(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 30 {
			sizes = sizes[:30]
		}
		sim := vtime.New()
		n := New(sim, Options{})
		a, b := n.Host("a"), n.Host("b")
		l, _ := b.Listen(1)
		var arrivals []time.Duration
		var order []int
		sim.Go("srv", func() {
			c, err := l.Accept()
			if err != nil {
				return
			}
			for i := range sizes {
				buf, err := c.RecvMessage()
				if err != nil || len(buf) != int(sizes[i])+4 {
					return
				}
				arrivals = append(arrivals, sim.Now())
				order = append(order, int(buf[0]))
			}
		})
		sim.Go("cli", func() {
			c, err := a.Dial(l.Addr())
			if err != nil {
				return
			}
			for i, sz := range sizes {
				buf := make([]byte, int(sz)+4)
				buf[0] = byte(i)
				c.Write(buf)
			}
		})
		sim.Run()
		if len(arrivals) != len(sizes) {
			return false
		}
		for i := 1; i < len(arrivals); i++ {
			if arrivals[i] < arrivals[i-1] {
				return false
			}
		}
		for i, o := range order {
			if o != i%256 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestParseAddrInvertsString(t *testing.T) {
	for _, a := range []Addr{{Host: "fe0", Port: 1234}, {Host: "n[0-3]:x", Port: 0}} {
		if got, err := ParseAddr(a.String()); err != nil || got != a {
			t.Errorf("ParseAddr(%q) = %+v, %v", a.String(), got, err)
		}
	}
	for _, bad := range []string{"", "fe0", "fe0:abc", ":", "fe0:12x"} {
		if _, err := ParseAddr(bad); err == nil {
			t.Errorf("ParseAddr(%q) accepted", bad)
		}
	}
}

// TestListenerCloseEndsBacklog: a connection that arrived but was never
// accepted ends with its listener — EOF at the dialer when the listener
// closes, ErrPeerDead when its host dies — and not only when the
// simulation is torn down.
func TestListenerCloseEndsBacklog(t *testing.T) {
	for _, kill := range []bool{false, true} {
		sim := vtime.New()
		n, a, b := pair(t, sim, Options{})
		l, err := b.Listen(9000)
		if err != nil {
			t.Fatal(err)
		}
		var readErr error
		torn := true
		sim.Go("dialer", func() {
			c, err := a.Dial(l.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			if kill {
				n.KillHost("b")
			} else {
				l.Close()
			}
			_, readErr = c.RecvMessage()
			torn = sim.Stopped()
		})
		sim.Run()
		if want := map[bool]error{false: io.EOF, true: ErrPeerDead}[kill]; torn || !errors.Is(readErr, want) {
			t.Errorf("host killed %v: the dialer read %v (at teardown: %v), want %v", kill, readErr, torn, want)
		}
	}
}

// TestSynAfterListenerCloseEndsTheDial: a SYN that reaches a listener closed
// since the dial ends the dialed connection as Close ends one it never
// accepted — the dialer reads EOF — and not only at teardown.
func TestSynAfterListenerCloseEndsTheDial(t *testing.T) {
	sim := vtime.New()
	_, a, b := pair(t, sim, Options{})
	l, err := b.Listen(9000)
	if err != nil {
		t.Fatal(err)
	}
	var readErr error
	torn := true
	sim.Go("dialer", func() {
		c, err := a.Dial(l.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		_, readErr = c.RecvMessage()
		torn = sim.Stopped()
	})
	sim.After(Latency/2, l.Close)
	sim.Run()
	if torn || readErr != io.EOF {
		t.Errorf("the dialer read %v (at teardown: %v), want %v before it", readErr, torn, io.EOF)
	}
}
