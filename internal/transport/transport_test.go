package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"launchmon/internal/lmonp"
	"launchmon/internal/obs"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

func TestHelloRoundTrip(t *testing.T) {
	for _, h := range []Hello{
		{Session: 0, Role: RoleEngine},
		{Session: 7, Role: RoleBE},
		{Session: 1 << 20, Role: RoleMW},
	} {
		buf, err := encodeHello(h)
		if err != nil {
			t.Fatalf("encode %+v: %v", h, err)
		}
		got, err := ReadHello(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("decode %+v: %v", h, err)
		}
		if got != h {
			t.Errorf("roundtrip %+v -> %+v", h, got)
		}
	}
}

func TestHelloRejectsGarbage(t *testing.T) {
	if _, err := encodeHello(Hello{Session: 1, Role: 9}); err == nil {
		t.Error("invalid role encoded")
	}
	if _, err := encodeHello(Hello{Session: -1, Role: RoleBE}); err == nil {
		t.Error("negative session encoded")
	}
	good, _ := encodeHello(Hello{Session: 1, Role: RoleBE})
	cases := map[string][]byte{
		"short":       good[:6],
		"bad magic":   append([]byte{0, 0, 0, 0}, good[4:]...),
		"bad version": append(append([]byte{}, good[:4]...), append([]byte{99}, good[5:]...)...),
		"bad role":    append(append([]byte{}, good[:5]...), append([]byte{0}, good[6:]...)...),
	}
	for name, buf := range cases {
		if _, err := ReadHello(bytes.NewReader(buf)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// muxRig builds a two-host network with a mux listening on "fe".
func muxRig(t *testing.T) (*vtime.Sim, *simnet.Network, *Mux) {
	t.Helper()
	sim := vtime.New()
	net := simnet.New(sim, simnet.Options{})
	mux, err := ListenMux(sim, net.Host("fe"))
	if err != nil {
		t.Fatal(err)
	}
	return sim, net, mux
}

func TestMuxRoutesBySessionAndRole(t *testing.T) {
	sim, net, mux := muxRig(t)
	ep1, err := mux.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := mux.Open(2)
	if err != nil {
		t.Fatal(err)
	}

	type got struct {
		session int
		role    Role
		payload string
	}
	results := make(chan got, 8)
	accept := func(ep *Endpoint, role Role) {
		sim.Go("accept", func() {
			c, err := ep.Accept(role, 10*time.Second)
			if err != nil {
				t.Errorf("accept session %d role %v: %v", ep.session, role, err)
				return
			}
			msg, err := c.Recv()
			if err != nil {
				t.Errorf("recv session %d role %v: %v", ep.session, role, err)
				return
			}
			results <- got{ep.session, role, string(msg.Payload)}
		})
	}
	accept(ep1, RoleEngine)
	accept(ep1, RoleBE)
	accept(ep2, RoleBE)

	dial := func(session int, role Role, payload string) {
		sim.Go("dial", func() {
			c, err := Dial(net.Host("node0"), mux.Addr(), session, role)
			if err != nil {
				t.Errorf("dial session %d role %v: %v", session, role, err)
				return
			}
			if err := c.Send(&lmonp.Msg{Class: lmonp.ClassFEBE, Type: lmonp.TypeUsrData, Payload: []byte(payload)}); err != nil {
				t.Error(err)
			}
		})
	}
	// Dial out of session order to prove arrival order no longer matters.
	dial(2, RoleBE, "s2-be")
	dial(1, RoleBE, "s1-be")
	dial(1, RoleEngine, "s1-eng")

	sim.Run()
	close(results)
	want := map[got]bool{
		{1, RoleEngine, "s1-eng"}: true,
		{1, RoleBE, "s1-be"}:      true,
		{2, RoleBE, "s2-be"}:      true,
	}
	n := 0
	for g := range results {
		if !want[g] {
			t.Errorf("unexpected routing result %+v", g)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("%d connections routed, want 3", n)
	}
}

func TestMuxUnknownSessionGetsEOF(t *testing.T) {
	sim, net, mux := muxRig(t)
	if _, err := mux.Open(1); err != nil {
		t.Fatal(err)
	}
	var readErr error
	sim.Go("dial", func() {
		raw, err := net.Host("node0").Dial(mux.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		if err := WriteHello(raw, Hello{Session: 99, Role: RoleBE}); err != nil {
			t.Error(err)
			return
		}
		_, readErr = raw.RecvMessage()
	})
	sim.Run()
	if readErr != io.EOF {
		t.Fatalf("read on rejected connection = %v, want EOF", readErr)
	}
}

func TestMuxAcceptTimeout(t *testing.T) {
	sim, _, mux := muxRig(t)
	ep, err := mux.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	var acceptErr error
	var elapsed time.Duration
	sim.Go("accept", func() {
		start := sim.Now()
		_, acceptErr = ep.Accept(RoleBE, 3*time.Second)
		elapsed = sim.Now() - start
	})
	sim.Run()
	if !errors.Is(acceptErr, errAcceptTimeout) {
		t.Fatalf("accept error = %v, want ErrAcceptTimeout", acceptErr)
	}
	if elapsed != 3*time.Second {
		t.Fatalf("timed out after %v of virtual time, want 3s", elapsed)
	}
}

func TestMuxDuplicateSessionRejected(t *testing.T) {
	_, _, mux := muxRig(t)
	if _, err := mux.Open(5); err != nil {
		t.Fatal(err)
	}
	if _, err := mux.Open(5); !errors.Is(err, errSessionExists) {
		t.Fatalf("duplicate open = %v", err)
	}
	if mux.Sessions() != 1 {
		t.Fatalf("sessions = %d, want 1", mux.Sessions())
	}
}

func TestEndpointDrainShedsStaleDials(t *testing.T) {
	sim, net, mux := muxRig(t)
	ep, err := mux.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	sim.Go("scenario", func() {
		// A late dial from a timed-out previous attempt...
		stale, err := net.Host("node0").Dial(mux.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		if err := WriteHello(stale, Hello{Session: 1, Role: RoleMW}); err != nil {
			t.Error(err)
			return
		}
		sim.Sleep(time.Second) // routed into the RoleMW queue
		if n := ep.Drain(RoleMW); n != 1 {
			t.Errorf("drained %d connections, want 1", n)
		}
		if _, err := stale.RecvMessage(); err != io.EOF {
			t.Errorf("stale dialer read = %v, want EOF", err)
		}
		// The retry's fresh dial is the one Accept returns.
		fresh, err := Dial(net.Host("node1"), mux.Addr(), 1, RoleMW)
		if err != nil {
			t.Error(err)
			return
		}
		if err := fresh.Send(&lmonp.Msg{Class: lmonp.ClassFEMW, Type: lmonp.TypeUsrData, Payload: []byte("fresh")}); err != nil {
			t.Error(err)
			return
		}
		c, err := ep.Accept(RoleMW, 10*time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		msg, err := c.Recv()
		if err != nil || string(msg.Payload) != "fresh" {
			t.Errorf("accepted connection carries %q, %v; want fresh dial", msg.Payload, err)
		}
	})
	sim.Run()
}

func TestEndpointCloseDeregistersAndDrains(t *testing.T) {
	sim, net, mux := muxRig(t)
	ep, err := mux.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	var readErr error
	sim.Go("scenario", func() {
		// Queue a connection that the session never accepts ...
		raw, err := net.Host("node0").Dial(mux.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		if err := WriteHello(raw, Hello{Session: 1, Role: RoleBE}); err != nil {
			t.Error(err)
			return
		}
		sim.Sleep(time.Second) // let the mux route it
		ep.Close()
		// ... closing the endpoint must close the queued connection.
		_, readErr = raw.RecvMessage()
		// And the ID becomes reusable.
		if _, err := mux.Open(1); err != nil {
			t.Errorf("reopen after close: %v", err)
		}
		if _, err := ep.Accept(RoleBE, time.Second); !errors.Is(err, errEndpointClosed) {
			t.Errorf("accept on closed endpoint: %v", err)
		}
	})
	sim.Run()
	if readErr != io.EOF {
		t.Fatalf("read on drained connection = %v, want EOF", readErr)
	}
}

// TestMuxSilentPeerBlocksNobody: the mux reads each connection's hello with
// a handler of that connection's own, so a peer that connects and never
// sends one holds up no other dial — and rejected hellos (a malformed one,
// one for a session nobody opened) are counted and answered with EOF.
func TestMuxSilentPeerBlocksNobody(t *testing.T) {
	sim, net, mux := muxRig(t)
	reg := obs.NewRegistry()
	mux.SetMetrics(reg)
	ep, err := mux.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	var got string
	sim.Go("scenario", func() {
		silent, err := net.Host("node0").Dial(mux.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		defer silent.Close()
		for name, hello := range map[string][]byte{
			"malformed":       []byte("not a hello!"),
			"unknown session": mustHello(t, Hello{Session: 99, Role: RoleBE}),
		} {
			raw, err := net.Host("node1").Dial(mux.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			if err := lmonp.SendMessage(raw, hello); err != nil {
				t.Error(err)
			}
			if _, err := raw.RecvMessage(); err != io.EOF {
				t.Errorf("%s hello: read = %v, want EOF", name, err)
			}
		}
		// Behind the silent peer and the rejects, a good dial is handed
		// over without a goroutine waiting for it.
		handed := vtime.NewChan[*lmonp.Conn](sim)
		ep.Handle(RoleBE, func(c *lmonp.Conn, err error) {
			if err != nil {
				t.Error(err)
			}
			handed.Send(c)
		})
		c, err := Dial(net.Host("node2"), mux.Addr(), 1, RoleBE)
		if err != nil {
			t.Error(err)
			return
		}
		if err := c.Send(&lmonp.Msg{Class: lmonp.ClassFEBE, Type: lmonp.TypeUsrData, Payload: []byte("good")}); err != nil {
			t.Error(err)
		}
		if fe, _ := handed.Recv(); fe != nil {
			if msg, err := fe.Recv(); err == nil {
				got = string(msg.Payload)
			}
		}
		// A withdrawn hand-off never runs.
		ep.Handle(RoleMW, func(*lmonp.Conn, error) { t.Error("withdrawn hand-off ran") })
		ep.Unhandle(RoleMW)
		sim.Sleep(2 * time.Second)
	})
	sim.Run()
	if got != "good" {
		t.Errorf("handed-over connection carried %q, want the good dial's message", got)
	}
	snap := reg.Snapshot()
	// The silent peer's connection ends without a hello: a reject too.
	if a, r := snap.Counters["mux.accept"], snap.Counters["mux.reject"]; a != 1 || r != 3 {
		t.Errorf("mux.accept = %d, mux.reject = %d; want 1 and 3", a, r)
	}
}

func mustHello(t *testing.T, h Hello) []byte {
	t.Helper()
	buf, err := encodeHello(h)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}
