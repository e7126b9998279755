package vtime

import (
	"math/rand"
	"runtime"
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

// BenchmarkTimerDeep: one push and one pop against 16 384 pending timers,
// launch_wide's mean heap depth — where BenchmarkTimer's heap is b.N deep.
func BenchmarkTimerDeep(b *testing.B) {
	const depth = 16384
	var h timerHeap
	var ev Event = funcEvent(func() {})
	var delays [1024]time.Duration
	rng := rand.New(rand.NewSource(1))
	for i := range delays {
		delays[i] = time.Duration(1+rng.Intn(depth)) * time.Microsecond
	}
	var now time.Duration
	var seq uint64
	for ; seq < depth; seq++ {
		h.push(timer{at: delays[seq%1024], seq: seq, ev: ev})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		h.push(timer{at: now + delays[i%1024], seq: seq, ev: ev})
		now = h.pop().at
	}
}

// BenchmarkSameInstant: a chain of zero-delay events, each scheduling the
// next — the same-instant FIFO's path.
func BenchmarkSameInstant(b *testing.B) {
	b.ReportAllocs()
	sim := New()
	sim.AfterEvent(0, &ticker{s: sim, n: b.N})
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

// BenchmarkParkWakeIdleP: the hand-off as a workload pays it. One goroutine
// sleeps a virtual millisecond at a time with nothing else runnable, under
// GOMAXPROCS=2, so the P it or the scheduler leaves is idle — and between
// hand-offs it works for some tens of microseconds, as a daemon handling a
// frame does. The work is what makes the difference to BenchmarkPark: the
// runtime wakes a thread for the idle P at every hand-off (ready → wakep),
// and that thread finds nothing, spins and goes back to sleep — in a tight
// ping-pong it never gets that far, and the next wakep finds it spinning
// and costs nothing. ns/op is one park, its wake and the work;
// handoff-ns/op is what the same loop costs less under GOMAXPROCS=1, where
// no thread is woken: the hand-off's real price (µs, not BenchmarkPark's
// fraction of one).
func BenchmarkParkWakeIdleP(b *testing.B) {
	run := func(procs int) time.Duration {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		sim := New()
		sim.Go("sleeper", func() {
			for i := 0; i < b.N; i++ {
				handoffWork()
				sim.Sleep(time.Millisecond)
			}
		})
		start := time.Now()
		sim.Run()
		return time.Since(start)
	}
	b.ReportAllocs()
	one := run(1)
	b.ResetTimer()
	two := run(2)
	b.ReportMetric(float64(two-one)/float64(b.N), "handoff-ns/op")
}

var handoffSink uint64

// handoffWork is ≈ 25 µs of arithmetic on the reference host.
func handoffWork() {
	x := handoffSink | 1
	for i := 0; i < 20000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	handoffSink = x
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
