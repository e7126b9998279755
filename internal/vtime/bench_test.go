package vtime

import (
	"testing"
	"time"
)

// The shapes of the benchmark's vtime kernels (benchmark/kernels.go) under
// their names, one operation per b.N, so a change to the scheduler can be
// read in seconds:
//
//	go test -run '^$' -bench . -benchmem ./internal/vtime

// BenchmarkTimer: schedule b.N timers over 1024 distinct instants, fire them.
func BenchmarkTimer(b *testing.B) {
	b.ReportAllocs()
	sim := New()
	for i := 0; i < b.N; i++ {
		sim.After(time.Duration(i%1024)*time.Microsecond, func() {})
	}
	sim.Run()
}

// BenchmarkHandle: one handled Chan re-sending to itself, a delivery per op.
func BenchmarkHandle(b *testing.B) {
	b.ReportAllocs()
	sim := New()
	ch := NewChan[int](sim)
	ch.Handle(func(v int, ok bool) {
		if ok && v < b.N {
			ch.Send(v + 1)
		}
	})
	ch.Send(1)
	sim.Run()
}

// BenchmarkPark: two goroutines ping-pong; every op is a Send that wakes a
// receiver parked in Recv.
func BenchmarkPark(b *testing.B) {
	b.ReportAllocs()
	sim := New()
	ping, pong := NewChan[int](sim), NewChan[int](sim)
	sim.Go("pong", func() {
		for {
			v, ok := ping.Recv()
			if !ok {
				return
			}
			pong.Send(v)
		}
	})
	sim.Go("ping", func() {
		for i := 0; i < b.N/2; i++ {
			ping.Send(i)
			pong.Recv()
		}
		ping.Close()
	})
	sim.Run()
}

// BenchmarkSpawn: b.N goroutines that park once and stay parked until all
// have — B/op is what a parked daemon costs the heap (its stack is not in
// it).
func BenchmarkSpawn(b *testing.B) {
	b.ReportAllocs()
	sim := New()
	gate := NewChan[struct{}](sim)
	sim.Go("spawner", func() {
		for i := 0; i < b.N; i++ {
			sim.Go("parked", func() { gate.Recv() })
		}
		sim.Sleep(time.Nanosecond) // runs again once every spawned goroutine has parked
		gate.Close()
	})
	sim.Run()
}
