package vtime

import (
	"math/rand"
	"testing"
	"time"
)

// point is a scheduling point: the instant it is due and the seq it took.
type point struct {
	at   time.Duration
	seq  uint64
	same bool // due at the instant it was scheduled at
}

// orderScript is one seeded run of the script TestSimFiresInTimeSeqOrder and
// FuzzEventOrder drive through a real Sim: events scheduled with zero and
// non-zero delay from outside the simulation, from firing events, from a
// handler and from goroutines; Sleeps; RecvTimeouts, some of which a Send
// wakes before their deadline, leaving it void in the heap; and handled
// deliveries. It records every scheduling point it makes and, as each one
// fires, its (at, seq) in firing order.
//
// A scheduling point's seq is read off the Sim as it is taken, which is only
// exact while one actor schedules at a time. So the script keeps at most one
// goroutine runnable: only events spawn a worker or Send to one, and as their
// last action; a worker never wakes another; the handler wakes nobody.
type orderScript struct {
	t      testing.TB
	s      *Sim
	rng    *rand.Rand
	budget int     // event scheduling points left to make
	fired  []point // in firing order
	early  int     // RecvTimeouts a Send woke before their deadline

	workers []*Chan[int] // each worker's inbox
	spawn   int          // workers left to spawn

	handled   *Chan[int]
	inHandler bool
	inFlight  int   // values sent to handled and not yet delivered
	delivery  point // the scheduling point of the next delivery
}

type orderEvent struct {
	r *orderScript
	p point
}

func (e *orderEvent) Fire() {
	r := e.r
	r.fire(e.p)
	for n := r.rng.Intn(3); n > 0; n-- {
		r.schedule()
	}
	if r.rng.Intn(3) == 0 {
		r.send()
	}
	switch r.rng.Intn(3) { // at most one wake-up, as the last action
	case 0:
		if r.spawn > 0 {
			r.spawn--
			inbox := NewChan[int](r.s)
			r.workers = append(r.workers, inbox)
			r.s.Go("worker", func() { r.work(inbox) })
		}
	case 1:
		if len(r.workers) > 0 {
			r.workers[r.rng.Intn(len(r.workers))].Send(0)
		}
	}
}

// seq is the last seq the Sim handed out.
func (r *orderScript) seq() uint64 {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	return r.s.seq
}

// fire records p firing now.
func (r *orderScript) fire(p point) {
	if now := r.s.Now(); now != p.at {
		r.t.Errorf("(%v, %d) fired with the clock at %v", p.at, p.seq, now)
	}
	r.fired = append(r.fired, p)
}

// taken checks that the scheduling point just made is p.
func (r *orderScript) taken(p point) {
	if seq := r.seq(); seq != p.seq {
		r.t.Errorf("predicted seq %d, the Sim handed out %d: two actors scheduled at once", p.seq, seq)
	}
}

// schedule makes one event scheduling point while the budget lasts: half at
// zero delay, the rest over four instants, so ties are common.
func (r *orderScript) schedule() {
	if r.budget == 0 {
		return
	}
	r.budget--
	var d time.Duration
	if r.rng.Intn(2) == 0 {
		d = time.Duration(1+r.rng.Intn(4)) * time.Microsecond
	}
	e := &orderEvent{r: r, p: point{at: r.s.Now() + d, seq: r.seq() + 1, same: d == 0}}
	if r.rng.Intn(2) == 0 {
		r.s.After(d, e.Fire)
	} else {
		r.s.AfterEvent(d, e)
	}
	r.taken(e.p)
}

// send queues a value on the handled Chan. It schedules a delivery only when
// none is in flight; inside the handler the delivery is in flight.
func (r *orderScript) send() {
	pumps := r.inFlight == 0 && !r.inHandler
	if pumps {
		r.delivery = point{at: r.s.Now(), seq: r.seq() + 1, same: true}
	}
	r.inFlight++
	r.handled.Send(0)
	if pumps {
		r.taken(r.delivery)
	}
}

func (r *orderScript) handle(_ int, ok bool) {
	if !ok {
		return
	}
	r.inHandler = true
	r.fire(r.delivery)
	r.inFlight--
	for n := r.rng.Intn(2); n > 0; n-- {
		r.schedule()
	}
	if r.rng.Intn(3) == 0 {
		r.send()
	}
	r.inHandler = false
	if r.inFlight > 0 { // the Chan schedules the next delivery as this returns
		r.delivery = point{at: r.s.Now(), seq: r.seq() + 1, same: true}
	}
}

// work is a worker's life: a few rounds of scheduling, then a Sleep or a
// RecvTimeout on its inbox.
func (r *orderScript) work(inbox *Chan[int]) {
	for round := 1 + r.rng.Intn(6); round > 0; round-- {
		for n := r.rng.Intn(3); n > 0; n-- {
			r.schedule()
		}
		if r.rng.Intn(4) == 0 {
			r.send()
		}
		// Now and then a wait outlasts every event, so a void deadline is
		// often the last thing queued.
		d := time.Duration(r.rng.Intn(5)) * time.Microsecond
		if r.rng.Intn(8) == 0 {
			d = time.Millisecond
		}
		p := point{at: r.s.Now() + d, seq: r.seq() + 1}
		if r.rng.Intn(2) == 0 {
			r.s.Sleep(d)
			if d > 0 {
				r.fire(p)
			}
			continue
		}
		r.s.mu.Lock()
		parks := inbox.q.len() == 0 && d > 0
		r.s.mu.Unlock()
		_, ok, timedOut := inbox.RecvTimeout(d)
		switch {
		case timedOut && d > 0:
			r.fire(p)
		case ok && parks:
			r.early++ // p is void now, and still queued
		}
	}
}

// runOrderScript runs the script for seed and checks what fired.
func runOrderScript(t testing.TB, seed int64) *orderScript {
	s := New()
	r := &orderScript{t: t, s: s, rng: rand.New(rand.NewSource(seed)), budget: 400, spawn: 12}
	r.handled = NewChan[int](s)
	r.handled.Handle(r.handle)
	// From outside the simulation: events at zero and non-zero delay, and a
	// delivery — all before the first worker starts.
	for i := 0; i < 4; i++ {
		r.schedule()
	}
	r.send()
	r.spawn--
	inbox := NewChan[int](s)
	r.workers = append(r.workers, inbox)
	s.Go("worker", func() { r.work(inbox) })
	end := s.Run()

	same := uint64(0)
	for i, p := range r.fired {
		if i > 0 && !r.fired[i-1].before(p) {
			t.Fatalf("seed %d: (%v, %d) fired after (%v, %d)", seed, p.at, p.seq, r.fired[i-1].at, r.fired[i-1].seq)
		}
		if p.same {
			same++
		}
	}
	if last := r.fired[len(r.fired)-1].at; end != last {
		t.Fatalf("seed %d: Run ended at %v, the last event fired at %v: the clock moved on a void deadline", seed, end, last)
	}
	if st := s.Stats(); st.Events != uint64(len(r.fired)) || st.SameInstant != same {
		t.Fatalf("seed %d: Stats %+v, the script saw %d events, %d of them same-instant", seed, st, len(r.fired), same)
	}
	return r
}

func (p point) before(q point) bool {
	return p.at < q.at || p.at == q.at && p.seq < q.seq
}

// TestSimFiresInTimeSeqOrder: whichever structure holds an event — the heap
// or the same-instant FIFO — the scheduler fires in (at, seq) order, and a
// void deadline (a RecvTimeout a Send woke first) neither fires nor moves the
// clock. The parker pool rides along: a parker reused while a void deadline
// still held it would wake the wrong goroutine out of order.
func TestSimFiresInTimeSeqOrder(t *testing.T) {
	events, early := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		r := runOrderScript(t, seed)
		events += len(r.fired)
		early += r.early
	}
	t.Logf("%d events fired and %d deadlines went void over 40 seeds", events, early)
	if events < 10000 || early < 40 {
		t.Fatalf("%d events fired and %d deadlines went void over 40 seeds: the script is not exercising the scheduler", events, early)
	}
}

func FuzzEventOrder(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { runOrderScript(t, seed) })
}
