package simnet

import (
	"bytes"
	"testing"
	"time"

	"launchmon/internal/vtime"
)

// The buffer-ownership rule at the bottom layer: Send hands the sender's
// own slice to the receiver (no copy anywhere), Write keeps the io.Writer
// contract (the caller may reuse p), and the two cost the same in virtual
// time and in the traffic counters.

// sendRig connects a→b and runs send on the dialing end; every message b
// receives is recorded whole with its arrival instant.
func sendRig(t *testing.T, send func(c *Conn)) (msgs [][]byte, at []time.Duration, stats Stats) {
	t.Helper()
	sim := vtime.New()
	n, a, b := pair(t, sim, Options{})
	l, err := b.Listen(9000)
	if err != nil {
		t.Fatal(err)
	}
	sim.Go("server", func() {
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		for {
			msg, err := c.RecvMessage()
			if err != nil {
				return
			}
			msgs, at = append(msgs, msg), append(at, sim.Now())
		}
	})
	sim.Go("client", func() {
		c, err := a.Dial(l.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		send(c)
		c.Close()
	})
	sim.Run()
	return msgs, at, n.Stats()
}

func TestSendDeliversTheVerySlice(t *testing.T) {
	sent := bytes.Repeat([]byte("m"), 4096)
	msgs, _, _ := sendRig(t, func(c *Conn) {
		// The same buffer twice: one message may go out any number of times.
		for i := 0; i < 2; i++ {
			if err := c.Send(sent); err != nil {
				t.Error(err)
			}
		}
	})
	if len(msgs) != 2 {
		t.Fatalf("%d messages arrived, want 2", len(msgs))
	}
	for i, got := range msgs {
		if len(got) != len(sent) || &got[0] != &sent[0] {
			t.Errorf("message %d arrived in another buffer than the one sent", i)
		}
	}
}

func TestWriteIsolatesTheCaller(t *testing.T) {
	p := bytes.Repeat([]byte("w"), 4096)
	want := append([]byte(nil), p...)
	msgs, _, _ := sendRig(t, func(c *Conn) {
		if n, err := c.Write(p); err != nil || n != len(p) {
			t.Errorf("Write = %d, %v", n, err)
		}
		// The io.Writer contract: p is the caller's again on return, long
		// before the message arrives.
		for i := range p {
			p[i] = 'X'
		}
	})
	if len(msgs) != 1 || !bytes.Equal(msgs[0], want) {
		t.Fatalf("a scribble on p after Write returned changed what arrived")
	}
}

func TestSendAndWriteCostTheSame(t *testing.T) {
	sizes := []int{1, 64, 4 << 10, 64 << 10}
	run := func(send func(c *Conn, p []byte) error) ([]time.Duration, Stats) {
		_, at, stats := sendRig(t, func(c *Conn) {
			for _, n := range sizes {
				if err := send(c, make([]byte, n)); err != nil {
					t.Error(err)
				}
			}
		})
		return at, stats
	}
	sendAt, sendStats := run(func(c *Conn, p []byte) error { return c.Send(p) })
	writeAt, writeStats := run(func(c *Conn, p []byte) error { _, err := c.Write(p); return err })
	if len(sendAt) != len(sizes) || len(writeAt) != len(sizes) {
		t.Fatalf("%d / %d messages arrived, want %d each", len(sendAt), len(writeAt), len(sizes))
	}
	for i := range sizes {
		if sendAt[i] != writeAt[i] {
			t.Errorf("%d-byte message: Send arrives at %v, Write at %v", sizes[i], sendAt[i], writeAt[i])
		}
	}
	if sendStats != writeStats {
		t.Errorf("Send counted %+v, Write %+v", sendStats, writeStats)
	}
}
