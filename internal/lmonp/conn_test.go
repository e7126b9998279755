package lmonp

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// connect runs a simulation in which host a dials host b over simnet and
// send writes on a's raw end while b's end is an LMONP Conn handed to
// serve; it returns once the simulation is quiet.
func connect(t *testing.T, serve func(sim *vtime.Sim, raw *simnet.Conn, c *Conn), send func(raw *simnet.Conn)) {
	t.Helper()
	sim := vtime.New()
	net := simnet.New(sim, simnet.Options{})
	l, err := net.Host("b").Listen(9000)
	if err != nil {
		t.Fatal(err)
	}
	l.Handle(func(raw *simnet.Conn, err error) {
		if err == nil {
			serve(sim, raw, NewConn(raw))
		}
	})
	var raw *simnet.Conn
	raw, err = net.Host("a").DialAsync(l.Addr(), eventFunc(func() { send(raw) }))
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
}

// eventFunc adapts a func to the vtime.Event DialAsync fires.
type eventFunc func()

func (f eventFunc) Fire() { f() }

// TestMessageLongerThanItsHeaderIsRefused: a network message that carries
// a byte its header does not announce is refused on its own, by a blocking
// Recv and by a handler alike, and the message behind it still decodes — the
// extra byte is not read as the start of the next header.
func TestMessageLongerThanItsHeaderIsRefused(t *testing.T) {
	want := &Msg{Class: ClassFEBE, Type: TypeUsrData, Seq: 3, Payload: []byte("lmon"), UsrData: []byte("tool")}
	good, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}
	long := append(good[:len(good):len(good)], 0)
	for _, handled := range []bool{false, true} {
		var got []string
		record := func(m *Msg, err error) {
			switch {
			case err == nil && reflect.DeepEqual(m, want):
				got = append(got, "message")
			case errors.Is(err, errLength):
				got = append(got, "refused")
			default:
				got = append(got, fmt.Sprint(m, err))
			}
		}
		connect(t, func(sim *vtime.Sim, _ *simnet.Conn, c *Conn) {
			if handled {
				c.Handle(record)
				return
			}
			sim.Go("reader", func() {
				for err := error(nil); err != io.EOF; {
					var m *Msg
					m, err = c.Recv()
					record(m, err)
				}
			})
		}, func(raw *simnet.Conn) {
			raw.Send(long)
			raw.Send(good)
			raw.Close()
		})
		if w := []string{"refused", "message", "<nil> EOF"}; !reflect.DeepEqual(got, w) {
			t.Errorf("handled %v: received %q, want %q", handled, got, w)
		}
	}
}

// TestHandledMessageAllocatesOnlyItsMsg: a message delivered to a Conn's
// handler is decoded where it lies, so the one object made for it is the
// Msg, whichever sections it carries. The connection bounces: each handled
// message sends a one-byte acknowledgement back, whose raw handling makes
// nothing, and that sends the next message.
func TestHandledMessageAllocatesOnlyItsMsg(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ack := []byte{1}
	for name, m := range map[string]*Msg{
		"both":    {Class: ClassFEBE, Type: TypeCollChunk, Payload: []byte("header"), UsrData: make([]byte, 256)},
		"payload": {Class: ClassFEBE, Type: TypeProctabChunk, Payload: make([]byte, 256)},
		"usrdata": {Class: ClassFEBE, Type: TypeUsrData, UsrData: make([]byte, 256)},
	} {
		wire, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		run := func(ops int) {
			connect(t, func(_ *vtime.Sim, raw *simnet.Conn, c *Conn) {
				c.Handle(func(got *Msg, err error) {
					if err != nil || got.Type != m.Type {
						t.Errorf("handled %v, %v", got, err)
						return
					}
					if ops--; ops > 0 {
						raw.Send(ack)
					}
				})
			}, func(raw *simnet.Conn) {
				raw.Handle(func(_ []byte, err error) {
					if err == nil {
						raw.Send(wire)
					}
				})
				raw.Send(wire)
			})
		}
		const n = 1000
		two := testing.AllocsPerRun(3, func() { run(2 * n) })
		one := testing.AllocsPerRun(3, func() { run(n) })
		if per := (two - one) / n; per > 1.01 {
			t.Errorf("%s: a handled message allocates %.2f objects, want 1 (its Msg)", name, per)
		}
	}
}
