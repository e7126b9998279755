package vtime

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	s := New()
	var woke time.Duration
	s.Go("sleeper", func() {
		s.Sleep(5 * time.Second)
		woke = s.Now()
	})
	end := s.Run()
	if woke != 5*time.Second {
		t.Errorf("woke at %v, want 5s", woke)
	}
	if end != 5*time.Second {
		t.Errorf("Run returned %v, want 5s", end)
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	s := New()
	s.Go("z", func() {
		s.Sleep(0)
		s.Sleep(-time.Second)
	})
	if end := s.Run(); end != 0 {
		t.Errorf("clock moved to %v for zero sleeps", end)
	}
}

func TestTimersFireInOrder(t *testing.T) {
	s := New()
	var order []int
	s.After(3*time.Second, func() { order = append(order, 3) })
	s.After(1*time.Second, func() { order = append(order, 1) })
	s.After(2*time.Second, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-timestamp events not FIFO: %v", order)
		}
	}
}

func TestManySleepersInterleave(t *testing.T) {
	s := New()
	var mu sync.Mutex
	wakes := map[int]time.Duration{}
	for i := 1; i <= 50; i++ {
		i := i
		s.Go("g", func() {
			s.Sleep(time.Duration(i) * time.Millisecond)
			mu.Lock()
			wakes[i] = s.Now()
			mu.Unlock()
		})
	}
	s.Run()
	for i := 1; i <= 50; i++ {
		if wakes[i] != time.Duration(i)*time.Millisecond {
			t.Fatalf("sleeper %d woke at %v", i, wakes[i])
		}
	}
}

func TestChanSendRecv(t *testing.T) {
	s := New()
	c := NewChan[int](s)
	var got []int
	s.Go("recv", func() {
		for i := 0; i < 3; i++ {
			v, ok := c.Recv()
			if !ok {
				t.Error("Recv returned !ok")
				return
			}
			got = append(got, v)
		}
	})
	s.Go("send", func() {
		s.Sleep(time.Millisecond)
		c.Send(1)
		c.Send(2)
		s.Sleep(time.Millisecond)
		c.Send(3)
	})
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestChanCloseWakesReceivers(t *testing.T) {
	s := New()
	c := NewChan[int](s)
	oks := make([]bool, 3)
	for i := 0; i < 3; i++ {
		i := i
		s.Go("r", func() {
			_, ok := c.Recv()
			oks[i] = ok
		})
	}
	s.Go("closer", func() {
		s.Sleep(time.Second)
		c.Close()
	})
	s.Run()
	for i, ok := range oks {
		if ok {
			t.Errorf("receiver %d got ok=true on closed empty chan", i)
		}
	}
}

func TestChanCloseDrainsPending(t *testing.T) {
	s := New()
	c := NewChan[int](s)
	c.Send(7)
	c.Close()
	var v int
	var ok bool
	s.Go("r", func() { v, ok = c.Recv() })
	s.Run()
	if !ok || v != 7 {
		t.Fatalf("got (%d,%v), want (7,true)", v, ok)
	}
}

func TestChanSendAfterCloseDropped(t *testing.T) {
	s := New()
	c := NewChan[int](s)
	c.Close()
	c.Send(1)
	if c.q.len() != 0 {
		t.Fatal("send after close enqueued a value")
	}
}

func TestRecvTimeout(t *testing.T) {
	s := New()
	c := NewChan[int](s)
	var timedOut bool
	var at time.Duration
	s.Go("r", func() {
		_, _, timedOut = c.RecvTimeout(3 * time.Second)
		at = s.Now()
	})
	s.Run()
	if !timedOut {
		t.Fatal("expected timeout")
	}
	if at != 3*time.Second {
		t.Fatalf("timed out at %v, want 3s", at)
	}
}

func TestRecvTimeoutValueBeforeDeadline(t *testing.T) {
	s := New()
	c := NewChan[int](s)
	var v int
	var ok, timedOut bool
	s.Go("r", func() { v, ok, timedOut = c.RecvTimeout(time.Hour) })
	s.Go("w", func() {
		s.Sleep(time.Second)
		c.Send(42)
	})
	end := s.Run()
	if !ok || timedOut || v != 42 {
		t.Fatalf("got v=%d ok=%v timedOut=%v", v, ok, timedOut)
	}
	if end != time.Second {
		t.Fatalf("sim ended at %v; stale timeout timer should not extend measured time beyond it firing", end)
	}
}

func TestTryRecv(t *testing.T) {
	s := New()
	c := NewChan[string](s)
	if _, ok := c.TryRecv(); ok {
		t.Fatal("TryRecv on empty chan returned ok")
	}
	c.Send("x")
	v, ok := c.TryRecv()
	if !ok || v != "x" {
		t.Fatalf("got (%q,%v)", v, ok)
	}
}

func TestRunTearsDownParkedGoroutines(t *testing.T) {
	s := New()
	c := NewChan[int](s)
	returned := false
	s.Go("blocked-forever", func() {
		_, ok := c.Recv()
		if ok {
			t.Error("torn-down Recv returned ok=true")
		}
		returned = true
	})
	s.Run()
	if !returned {
		t.Fatal("parked goroutine did not return after Run")
	}
	if !s.Stopped() {
		t.Fatal("Stopped() false after Run")
	}
}

func TestWaitGroup(t *testing.T) {
	s := New()
	wg := NewWaitGroup(s)
	wg.Add(3)
	var doneAt time.Duration
	s.Go("waiter", func() {
		wg.Wait()
		doneAt = s.Now()
	})
	for i := 1; i <= 3; i++ {
		i := i
		s.Go("worker", func() {
			s.Sleep(time.Duration(i) * time.Second)
			wg.Done()
		})
	}
	s.Run()
	if doneAt != 3*time.Second {
		t.Fatalf("waiter released at %v, want 3s", doneAt)
	}
}

func TestWaitGroupAlreadyZero(t *testing.T) {
	s := New()
	wg := NewWaitGroup(s)
	ok := false
	s.Go("w", func() { wg.Wait(); ok = true })
	s.Run()
	if !ok {
		t.Fatal("Wait on zero counter blocked")
	}
}

func TestGoroutinePanicPropagates(t *testing.T) {
	s := New()
	s.Go("bad", func() { panic("boom") })
	defer func() {
		if recover() == nil {
			t.Fatal("Run did not propagate goroutine panic")
		}
	}()
	s.Run()
}

func TestNestedGo(t *testing.T) {
	s := New()
	var hits int
	var mu sync.Mutex
	s.Go("parent", func() {
		for i := 0; i < 5; i++ {
			s.Go("child", func() {
				s.Sleep(time.Millisecond)
				mu.Lock()
				hits++
				mu.Unlock()
			})
		}
	})
	s.Run()
	if hits != 5 {
		t.Fatalf("hits = %d, want 5", hits)
	}
}

// Property: for any set of sleep durations, every sleeper wakes exactly at
// its requested virtual time and the final clock equals the max duration.
func TestPropertySleepExactness(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		s := New()
		var mu sync.Mutex
		wakes := make([]time.Duration, len(raw))
		var max time.Duration
		for i, r := range raw {
			d := time.Duration(r) * time.Microsecond
			if d > max {
				max = d
			}
			i := i
			s.Go("p", func() {
				s.Sleep(d)
				mu.Lock()
				wakes[i] = s.Now()
				mu.Unlock()
			})
		}
		end := s.Run()
		if end != max {
			return false
		}
		for i, r := range raw {
			want := time.Duration(r) * time.Microsecond
			if wakes[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Chan preserves FIFO order for a single sender/receiver pair
// regardless of interleaved sleeps.
func TestPropertyChanFIFO(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		cnt := int(n%50) + 1
		rng := rand.New(rand.NewSource(seed))
		s := New()
		c := NewChan[int](s)
		var got []int
		s.Go("recv", func() {
			for i := 0; i < cnt; i++ {
				v, ok := c.Recv()
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
		delays := make([]time.Duration, cnt)
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(1000)) * time.Microsecond
		}
		s.Go("send", func() {
			for i := 0; i < cnt; i++ {
				s.Sleep(delays[i])
				c.Send(i)
			}
		})
		s.Run()
		if len(got) != cnt {
			return false
		}
		return sort.IntsAreSorted(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Determinism: the same program yields the same final clock on every run.
func TestDeterministicEndTime(t *testing.T) {
	run := func() time.Duration {
		s := New()
		c := NewChan[int](s)
		for i := 0; i < 20; i++ {
			i := i
			s.Go("w", func() {
				s.Sleep(time.Duration(i*7%13) * time.Millisecond)
				c.Send(i)
			})
		}
		s.Go("r", func() {
			for i := 0; i < 20; i++ {
				c.Recv()
				s.Sleep(time.Millisecond)
			}
		})
		return s.Run()
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d ended at %v, first ended at %v", i, got, first)
		}
	}
}

// TestChanPopReleasesValue: a value received from a Chan is the receiver's
// alone — the queue's backing array, which lives on while the Chan does,
// must not keep it reachable. (It did: a resident listener pinned the last
// connections it had accepted, with their handlers and frames.)
func TestChanPopReleasesValue(t *testing.T) {
	c := NewChan[*[64]byte](New())
	collected := make(chan struct{})
	func() {
		v := new([64]byte)
		runtime.SetFinalizer(v, func(*[64]byte) { close(collected) })
		c.Send(v)
		c.Send(new([64]byte)) // still queued: the backing array stays in use
	}()
	if _, ok := c.TryRecv(); !ok {
		t.Fatal("nothing queued")
	}
	deadline := time.After(2 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(c)
			return
		case <-deadline:
			t.Fatal("a popped value is still reachable through its Chan")
		default:
			runtime.Gosched() // the finalizer runs on its own goroutine
		}
	}
}

// TestWaiter: the wait point of an operation scheduler callbacks carry out.
func TestWaiter(t *testing.T) {
	t.Run("Wake releases the goroutine in Wait, once per Wake", func(t *testing.T) {
		s := New()
		var op struct {
			w    Waiter
			done int
		}
		op.w.Init(s)
		var woke []time.Duration
		s.Go("waiter", func() {
			for i := 0; i < 2; i++ {
				if !op.w.Wait() {
					t.Error("Wait torn down")
				}
				woke = append(woke, s.Now())
			}
		})
		s.After(time.Millisecond, func() {
			op.w.Wake()
			op.w.Wake() // the goroutine has not run yet: one wake
		})
		s.After(3*time.Millisecond, op.w.Wake)
		s.Run()
		if len(woke) != 2 || woke[0] != time.Millisecond || woke[1] != 3*time.Millisecond {
			t.Errorf("woken at %v, want 1ms and 3ms", woke)
		}
	})
	t.Run("a Wake that comes first is kept", func(t *testing.T) {
		s := New()
		var w Waiter
		w.Init(s)
		s.Go("waiter", func() {
			w.Wake()
			before := s.Parks()
			if !w.Wait() || s.Parks() != before {
				t.Error("Wait after Wake blocked")
			}
		})
		s.Run()
	})
	t.Run("teardown ends Wait with false", func(t *testing.T) {
		s := New()
		var w Waiter
		w.Init(s)
		got := true
		s.Go("waiter", func() { got = w.Wait() })
		s.Run()
		if got {
			t.Error("Wait returned true with nobody to wake it")
		}
		if w.Wait() {
			t.Error("Wait on a stopped simulation returned true")
		}
	})
}

func TestParksCountsBlockingCalls(t *testing.T) {
	s := New()
	c := NewChan[int](s)
	s.Go("a", func() {
		s.Sleep(time.Millisecond) // 1
		c.Recv()                  // 2
		c.Send(1)
		c.Recv() // a value is queued: no park
	})
	s.Go("b", func() {
		s.Sleep(2 * time.Millisecond) // 3
		c.Send(0)
	})
	s.Run()
	if got := s.Parks(); got != 3 {
		t.Errorf("Parks = %d, want 3", got)
	}
}

// TestStatsCountsEvents pins the scheduler's own counts on a small script:
// what fires counts once, from the heap or the same-instant FIFO, and a void
// deadline not at all.
func TestStatsCountsEvents(t *testing.T) {
	s := New()
	inbox := NewChan[int](s)
	c := NewChan[int](s)
	c.Handle(func(_ int, ok bool) {
		if ok {
			inbox.Send(0) // wakes the receiver before its deadline
		}
	})
	s.After(0, func() {})                // 1: same-instant
	s.After(time.Millisecond, func() {}) // 2
	var timedOut bool
	s.Go("a", func() {
		s.Sleep(time.Millisecond) // 3: the third pending event, at its peak
		c.Send(1)                 // 4: a delivery, same-instant
		_, _, timedOut = inbox.RecvTimeout(time.Second)
	})
	if end := s.Run(); end != time.Millisecond || timedOut {
		t.Errorf("Run ended at %v (timed out: %v), want 1ms with the receive woken early", end, timedOut)
	}
	// The digest folds the four fired events' (at, seq) in firing order; the
	// void deadline took seq 5 and is not among them.
	var digest uint64
	for _, ev := range []timer{{0, 1, nil}, {time.Millisecond, 2, nil}, {time.Millisecond, 3, nil}, {time.Millisecond, 4, nil}} {
		digest = mixEvent(digest, ev)
	}
	if got, want := s.Stats(), (Stats{Events: 4, SameInstant: 2, PeakPending: 3, Digest: digest}); got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
}

// TestAtEventRunsBetweenEvents: the hook runs once, after exactly n events
// and before the next, with whatever it woke settled first — a receiver it
// wakes schedules its own timer ahead of the next pending event's firing —
// and a later AtEvent replaces an armed one.
func TestAtEventRunsBetweenEvents(t *testing.T) {
	s := New()
	c := NewChan[int](s)
	var log []string
	for i := 1; i <= 3; i++ {
		i := i
		s.After(time.Duration(i)*time.Millisecond, func() { log = append(log, fmt.Sprint("t", i)) })
	}
	s.Go("r", func() {
		if _, ok := c.Recv(); ok {
			log = append(log, "woken")
			s.Sleep(time.Millisecond) // due at 2ms, after t2's seq: fires after it
			log = append(log, "slept")
		}
	})
	s.AtEvent(0, func() { t.Error("a replaced hook ran") })
	s.AtEvent(1, func() {
		log = append(log, fmt.Sprint("hook@", s.Stats().Events))
		c.Send(0)
	})
	s.Run()
	want := "t1 hook@1 woken t2 slept t3"
	if got := strings.Join(log, " "); got != want {
		t.Errorf("ran %q, want %q", got, want)
	}
}

// awaitRecord is a record that reads a Chan with Await: it logs what it
// takes, and the channel's end.
type awaitRecord struct {
	c   *Chan[int]
	r   Resume
	log *[]string
}

func (a *awaitRecord) Fire() {
	for {
		v, ok, wait := a.c.Await(&a.r)
		switch {
		case wait:
			return
		case !ok:
			*a.log = append(*a.log, "closed")
			return
		}
		*a.log = append(*a.log, fmt.Sprint("took ", v))
	}
}

// TestAwaitRunsWhereTheWokenGoroutineRan: a record woken by a Send goes on
// behind the event that sent — before the next event due at that instant —
// and neither fires an event of its own nor counts a park; a Close wakes it
// the same way, and so does a Send from a goroutine, once it has parked.
func TestAwaitRunsWhereTheWokenGoroutineRan(t *testing.T) {
	s := New()
	var log []string
	a := &awaitRecord{c: NewChan[int](s), log: &log}
	a.r.Init(a)
	a.Fire() // nothing queued: it waits
	s.After(time.Millisecond, func() { a.c.Send(1); log = append(log, "sent") })
	s.After(time.Millisecond, func() { log = append(log, "next") })
	s.After(2*time.Millisecond, func() {
		s.Go("sender", func() { a.c.Send(2); log = append(log, "goroutine sent") })
	})
	s.After(3*time.Millisecond, func() { a.c.Close() })
	s.Run()
	want := "sent,took 1,next,goroutine sent,took 2,closed"
	if got := strings.Join(log, ","); got != want {
		t.Errorf("order %s, want %s", got, want)
	}
	if st := s.Stats(); st.Events != 4 || s.Parks() != 0 {
		t.Errorf("%d events and %d parks, want the 4 scheduled and none", st.Events, s.Parks())
	}
}

// countingName is a goroutine name that counts how often it is formatted.
type countingName struct{ n *int }

func (c countingName) String() string { *c.n++; return "lazy" }

// TestGoFormatsANameOnlyWhenAsked: a name that is not a string is
// formatted only for the spawn observer and a panic's message, which see
// it as they would the string.
func TestGoFormatsANameOnlyWhenAsked(t *testing.T) {
	sim := New()
	formatted := 0
	sim.Go(countingName{&formatted}, func() {})
	sim.Run()
	if formatted != 0 {
		t.Fatalf("a name nobody asked for was formatted %d times", formatted)
	}
	var seen []string
	sim.SetSpawnObserver(func(name string) { seen = append(seen, name) })
	sim.Go(countingName{&formatted}, func() { panic("boom") })
	defer func() {
		want := `vtime goroutine "lazy" panicked: boom`
		if r := recover(); fmt.Sprint(r) != want || formatted != 2 || len(seen) != 1 || seen[0] != "lazy" {
			t.Errorf("Run raised %v after %d formats, the observer saw %q; want %q, 2 and [lazy]", r, formatted, seen, want)
		}
	}()
	sim.Run()
}

// TestDigestNamesTheFiringOrder: Stats().Digest folds every fired event's
// (at, seq). The same program run twice reads the same digest; two events
// scheduled for one instant in the other order — each of which schedules a
// follow-up of its own delay — fire the same count of events at the same
// instants, but the follow-ups take the other seqs, and the digest differs.
func TestDigestNamesTheFiringOrder(t *testing.T) {
	run := func(swap bool) Stats {
		s := New()
		a := func() { s.After(time.Millisecond, func() {}) }
		b := func() { s.After(2*time.Millisecond, func() {}) }
		if swap {
			a, b = b, a
		}
		s.After(time.Second, a)
		s.After(time.Second, b)
		s.Go("w", func() {
			s.Sleep(time.Millisecond)
			s.After(0, func() {})
		})
		s.Run()
		return s.Stats()
	}
	first, again, swapped := run(false), run(false), run(true)
	if first != again {
		t.Errorf("one program ran twice: %+v, then %+v", first, again)
	}
	if first.Events != 6 || swapped.Events != first.Events {
		t.Errorf("events %d and %d swapped, want 6 each", first.Events, swapped.Events)
	}
	if swapped.Digest == first.Digest {
		t.Errorf("same-instant events scheduled in the other order read the same digest %#x", first.Digest)
	}
}

// overlapGuard counts the simulated goroutines inside a stretch of real
// time: hold keeps its caller in for a real millisecond, and max is the most
// that were ever in at once.
type overlapGuard struct{ in, max, held atomic.Int32 }

func (g *overlapGuard) hold() {
	n := g.in.Add(1)
	for m := g.max.Load(); n > m && !g.max.CompareAndSwap(m, n); m = g.max.Load() {
	}
	time.Sleep(time.Millisecond)
	g.in.Add(-1)
	g.held.Add(1)
}

// TestWokenGoroutineWaitsItsTurn: whatever makes a goroutine runnable — a
// callback's wake, a Go before Run, teardown's abort — it runs in its turn,
// never beside the code that made it runnable nor beside another goroutine,
// so the events they schedule take their seqs in one order whatever the host
// does; and the AtEvent hook runs alone, before the next event.
func TestWokenGoroutineWaitsItsTurn(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, s *Sim)
	}{
		{"callback wake", func(t *testing.T, s *Sim) {
			c := NewChan[int](s)
			var ran atomic.Bool
			early := false
			s.Go("receiver", func() {
				c.Recv()
				ran.Store(true)
			})
			s.After(time.Second, func() {
				c.Send(1)
				time.Sleep(5 * time.Millisecond)
				early = ran.Load()
			})
			s.Run()
			if !ran.Load() || early {
				t.Errorf("receiver ran: %v; ran while the callback that woke it still ran: %v", ran.Load(), early)
			}
		}},
		{"Go before Run", func(t *testing.T, s *Sim) {
			var ran atomic.Bool
			s.Go("early", func() { ran.Store(true) })
			time.Sleep(5 * time.Millisecond)
			early := ran.Load()
			s.Run()
			if early || !ran.Load() {
				t.Errorf("ran before Run: %v; ran at all: %v", early, ran.Load())
			}
		}},
		{"Go before Run, one at a time in Go order", func(t *testing.T, s *Sim) {
			var g overlapGuard
			var mu sync.Mutex
			var order []int
			for i := 0; i < 4; i++ {
				i := i
				s.Go(fmt.Sprint("g", i), func() {
					mu.Lock()
					order = append(order, i)
					mu.Unlock()
					g.hold()
				})
			}
			s.Run()
			if g.max.Load() != 1 || fmt.Sprint(order) != "[0 1 2 3]" {
				t.Errorf("%d ran at once, in the order %v; want 1 at a time, [0 1 2 3]", g.max.Load(), order)
			}
		}},
		{"teardown aborts one at a time", func(t *testing.T, s *Sim) {
			var g overlapGuard
			c := NewChan[int](s)
			for i := 0; i < 2; i++ {
				s.Go(fmt.Sprint("parked", i), func() {
					if _, ok := c.Recv(); !ok {
						g.hold()
					}
				})
			}
			s.Run()
			if g.held.Load() != 2 || g.max.Load() != 1 {
				t.Errorf("%d of 2 aborted goroutines ran on, %d at once; want 2, one at a time", g.held.Load(), g.max.Load())
			}
		}},
		{"AtEvent hook alone", func(t *testing.T, s *Sim) {
			var g overlapGuard
			for i := 0; i < 2; i++ {
				s.Go(fmt.Sprint("sleeper", i), func() {
					s.Sleep(time.Millisecond)
					g.hold()
				})
			}
			events := uint64(0)
			s.AtEvent(1, func() {
				events = s.Stats().Events
				g.hold()
			})
			s.Run()
			if events != 1 || g.held.Load() != 3 || g.max.Load() != 1 {
				t.Errorf("hook ran after %d events; %d of 3 held, %d at once; want 1, 3, one at a time", events, g.held.Load(), g.max.Load())
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, New()) })
	}
}
