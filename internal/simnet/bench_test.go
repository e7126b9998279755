package simnet

import (
	"testing"
	"time"

	"launchmon/internal/vtime"
)

// The shapes of the benchmark's simnet kernels (benchmark/kernels.go) under
// their names, one operation per b.N:
//
//	go test -run '^$' -bench . -benchmem ./internal/simnet

// benchListen opens host b's listener, handing every accepted conn to
// onConn, and returns the dialing host and the address to dial.
func benchListen(b *testing.B, sim *vtime.Sim, onConn func(*Conn)) (*Host, Addr) {
	b.Helper()
	n := New(sim, Options{})
	l, err := n.Host("b").Listen(7000)
	if err != nil {
		b.Fatal(err)
	}
	l.Handle(func(c *Conn, err error) {
		if err == nil {
			onConn(c)
		}
	})
	return n.Host("a"), l.Addr()
}

// BenchmarkDial: dial, and close both ends.
func BenchmarkDial(b *testing.B) {
	b.ReportAllocs()
	sim := vtime.New()
	a, addr := benchListen(b, sim, func(c *Conn) { c.Close() })
	sim.Go("dialer", func() {
		for i := 0; i < b.N; i++ {
			c, err := a.Dial(addr)
			if err != nil {
				b.Error(err)
				return
			}
			c.Close()
		}
	})
	sim.Run()
}

// benchMsg writes b.N messages of size bytes to a handled end, back to back
// in bursts of 2048 (the kernel's count at 64 KiB: a burst is in flight all
// at once, so it bounds the memory a large b.N takes); B/op above size is
// what the network copies or boxes per message.
func benchMsg(b *testing.B, size int) {
	b.ReportAllocs()
	b.SetBytes(int64(size))
	buf := make([]byte, size)
	sim := vtime.New()
	got := 0
	a, addr := benchListen(b, sim, func(c *Conn) {
		c.Handle(func(m []byte, err error) {
			if err == nil {
				got += len(m)
			}
		})
	})
	sim.Go("sender", func() {
		c, err := a.Dial(addr)
		if err != nil {
			b.Error(err)
			return
		}
		for i := 0; i < b.N; i++ {
			if _, err := c.Write(buf); err != nil {
				b.Error(err)
				return
			}
			if i%2048 == 2047 {
				sim.Sleep(time.Second) // virtual: the burst drains
			}
		}
		c.Close()
	})
	sim.Run()
	if got != b.N*size {
		b.Errorf("delivered %d of %d bytes", got, b.N*size)
	}
}

func BenchmarkMsg64B(b *testing.B) { benchMsg(b, 64) }
func BenchmarkMsg64K(b *testing.B) { benchMsg(b, 64<<10) }
