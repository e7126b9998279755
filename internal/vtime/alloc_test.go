package vtime

import (
	"runtime"
	"testing"
	"time"
)

// The allocation guards of the scheduler's hot path: what one more park,
// timer or handled delivery costs the host in objects. They run in CI's
// `go test -run 'Alloc|Heap'` step, without the race detector.

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

func TestSleepAllocsNothing(t *testing.T) {
	per := allocsPerOp(t, 2000, func(ops int) {
		s := New()
		s.Go("sleeper", func() {
			for i := 0; i < ops; i++ {
				s.Sleep(time.Microsecond)
			}
		})
		s.Run()
	})
	if per > 0.01 {
		t.Errorf("a Sleep allocates %.2f objects, want 0: its parker comes from the pool", per)
	}
}

func TestRecvWakeAllocsNothing(t *testing.T) {
	// Ping-pong: every Send wakes a receiver parked in Recv, two parks a
	// round trip.
	per := allocsPerOp(t, 2000, func(ops int) {
		s := New()
		ping, pong := NewChan[int](s), NewChan[int](s)
		s.Go("pong", func() {
			for {
				v, ok := ping.Recv()
				if !ok {
					return
				}
				pong.Send(v)
			}
		})
		s.Go("ping", func() {
			for i := 0; i < ops/2; i++ {
				ping.Send(i)
				pong.Recv()
			}
			ping.Close()
		})
		s.Run()
	})
	if per > 0.01 {
		t.Errorf("a blocking Recv and its wake-up allocate %.2f objects, want 0: its parker comes from the pool", per)
	}
}

func TestWaiterWaitAllocsNothing(t *testing.T) {
	per := allocsPerOp(t, 2000, func(ops int) {
		s := New()
		var w Waiter
		w.Init(s)
		s.Go("waiter", func() {
			for i := 0; i < ops; i++ {
				s.AfterEvent(time.Microsecond, (*wakeEvent)(&w))
				w.Wait()
			}
		})
		s.Run()
	})
	if per > 0.01 {
		t.Errorf("a Wait and its Wake allocate %.2f objects, want 0: the parker is the Waiter's own", per)
	}
}

// wakeEvent is a Waiter as the event that wakes it.
type wakeEvent Waiter

func (e *wakeEvent) Fire() { (*Waiter)(e).Wake() }

func TestRecvTimeoutAllocsNothing(t *testing.T) {
	per := allocsPerOp(t, 2000, func(ops int) {
		s := New()
		c := NewChan[int](s)
		s.Go("receiver", func() {
			for i := 0; i < ops; i++ {
				c.RecvTimeout(time.Microsecond)
			}
		})
		s.Run()
	})
	if per > 0.01 {
		t.Errorf("a timed-out receive allocates %.2f objects, want 0: its parker comes from the pool", per)
	}
}

func TestHandledDeliveryAllocsNothing(t *testing.T) {
	per := allocsPerOp(t, 2000, func(ops int) {
		s := New()
		c := NewChan[int](s)
		c.Handle(func(v int, ok bool) {
			if ok && v < ops {
				c.Send(v + 1)
			}
		})
		c.Send(1)
		s.Run()
	})
	if per > 0.01 {
		t.Errorf("a handled delivery allocates %.2f objects, want 0", per)
	}
}

// ticker is an Event that schedules itself again, d later, until it has
// fired n times.
type ticker struct {
	s *Sim
	n int
	d time.Duration
}

func (k *ticker) Fire() {
	if k.n--; k.n > 0 {
		k.s.AfterEvent(k.d, k)
	}
}

func TestAfterEventAllocsNothing(t *testing.T) {
	per := allocsPerOp(t, 2000, func(ops int) {
		s := New()
		s.AfterEvent(0, &ticker{s: s, n: ops, d: time.Microsecond})
		s.Run()
	})
	if per > 0.01 {
		t.Errorf("scheduling and firing an Event allocates %.2f objects, want 0", per)
	}
	// After adapts a func without boxing it: a func value is a pointer.
	per = allocsPerOp(t, 2000, func(ops int) {
		s := New()
		var tick func()
		tick = func() {
			if ops--; ops > 0 {
				s.After(time.Microsecond, tick)
			}
		}
		s.After(0, tick)
		s.Run()
	})
	if per > 0.01 {
		t.Errorf("After with a ready func allocates %.2f objects, want 0", per)
	}
}

// TestTimedOutReceiverLeavesTheChanHeapFlat: a receiver whose deadline passes is
// woken by its timer, and nobody but itself can take it off the channel's
// list of waiters. (Nobody did: every RecvTimeout on an idle channel left
// its parker queued until the next Send or Close, so a daemon polling a
// quiet link grew without bound.) The heap half of the check needs MemStats
// and runs in the no-race step, hence the name.
func TestTimedOutReceiverLeavesTheChanHeapFlat(t *testing.T) {
	s := New()
	c := NewChan[int](s)
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var before, after uint64
	s.Go("poller", func() {
		for i := 0; i < 11000; i++ {
			if i == 1000 {
				before = heap()
			}
			if _, ok, timedOut := c.RecvTimeout(time.Millisecond); ok || !timedOut {
				t.Errorf("RecvTimeout %d on an idle Chan = (ok=%v, timedOut=%v)", i, ok, timedOut)
				return
			}
			s.mu.Lock()
			queued := c.wakers.head
			s.mu.Unlock()
			if queued != nil {
				t.Errorf("after timeout %d a parker is still queued on the Chan", i)
				return
			}
		}
		after = heap()

		// The list still works: of a receiver that gives up and one that
		// stays, a later Send wakes the one that stayed.
		got := NewChan[int](s)
		s.Go("stays", func() {
			v, _ := c.Recv()
			got.Send(v)
		})
		s.Go("gives up", func() { c.RecvTimeout(time.Millisecond) })
		s.Sleep(time.Second)
		c.Send(42)
		if v, ok, _ := got.RecvTimeout(time.Second); !ok || v != 42 {
			t.Errorf("the receiver still parked got (%d, %v), want 42", v, ok)
		}
	})
	s.Run()
	if raceEnabled {
		return
	}
	if grown := int64(after) - int64(before); grown > 64<<10 {
		t.Errorf("10000 timed-out receives left %d bytes reachable", grown)
	}
}

// TestParkerPoolIsBounded: a parker its waiter is through with goes back to
// the Sim for the next park — but only up to poolSize of them, or a pool
// would keep a whole wave of parkers reachable for the rest of the run. Waves
// of 10 000 goroutines park at once and are then released; from the second
// wave on the heap stays flat.
func TestParkerPoolIsBounded(t *testing.T) {
	const n, waves = 10000, 4
	if !raceEnabled {
		// What the runtime caches per P (goroutine descriptors, sudogs)
		// moves HeapAlloc by tens of KB between runs on several Ps; on one
		// it does not.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	s := New()
	pooled := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.pool)
	}
	var before, after uint64
	s.Go("spawner", func() {
		for wave := 0; wave < waves; wave++ {
			gate := NewChan[struct{}](s)
			wg := NewWaitGroup(s)
			wg.Add(n)
			for i := 0; i < n; i++ {
				s.Go("parked", func() {
					gate.Recv()
					wg.Done()
				})
			}
			s.Sleep(time.Nanosecond) // every goroutine above has parked
			gate.Close()
			wg.Wait()
			if p := pooled(); p > poolSize {
				t.Errorf("wave %d: %d parkers pooled, want at most %d", wave, p, poolSize)
			}
			if wave == 0 {
				before = heap()
			}
		}
		after = heap()
	})
	s.Run()
	if s.Parks() < waves*n {
		t.Fatalf("%d parks, want every goroutine of every wave parked", s.Parks())
	}
	if raceEnabled {
		return
	}
	if grown := int64(after) - int64(before); grown > 64<<10 {
		t.Errorf("%d more waves of %d parks left %d bytes reachable", waves-1, n, grown)
	}
}
