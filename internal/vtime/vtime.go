// Package vtime implements a discrete-event virtual-time scheduler on which
// the whole simulated cluster runs.
//
// Simulated activities execute as ordinary goroutines, but every blocking
// operation (sleeping, receiving on a simulated channel) goes through the
// Sim, which tracks how many simulated goroutines are currently runnable.
// When none are runnable the scheduler pops the earliest pending timer,
// advances the virtual clock to it, and fires it — typically waking a
// sleeper or delivering a message. Virtual time therefore advances only
// when the simulation is otherwise quiescent, which makes a "60 second"
// protocol run complete in milliseconds of real time and makes measured
// durations independent of host load.
//
// The invariants that keep this sound:
//
//   - every goroutine participating in the simulation is started with
//     Sim.Go (or is the caller of Sim.Run itself);
//   - simulated goroutines never block on real synchronization primitives
//     while counted as runnable — all blocking goes through Sleep, Chan,
//     Waiter or WaitGroup from this package;
//   - one simulated goroutine runs at a time: a goroutine Go makes, one a
//     wake or teardown releases and a record a wake resumes all wait their
//     turn on one FIFO (Sim.turns), taken once the runnable have parked, so
//     host order decides no seq — before Run, inside it and in teardown.
package vtime

import (
	"fmt"
	"math/bits"
	"sync"
	"time"
)

// Sim is a discrete-event virtual-time scheduler. The zero value is not
// usable; call New.
type Sim struct {
	mu       sync.Mutex
	schedule sync.Cond // signalled when runnable drops to zero
	now      time.Duration
	runnable int           // simulated goroutines currently executing
	timers   timerHeap     // events due after the instant they were scheduled at
	ready    queue[Event]  // events due at now, in seq order (see fireNext)
	readySeq queue[uint32] // beside ready, the low 32 bits of each one's seq
	turns    queue[turn]   // what waits to run, in the order it was made runnable
	seq      uint64        // tie-break for deterministic ordering of equal timestamps
	stopped  bool          // Run has torn down; subsequent blocking ops abort
	live     int           // simulated goroutines made by Go and not finished
	peakLive int           // high-water mark of live
	parked   *parker       // blocked goroutines, newest first, for teardown
	parks    uint64        // times a simulated goroutine has blocked
	pool     []*parker     // released parkers for the next parks, at most poolSize
	stats    Stats
	panicked any
	spawnObs func(name string) // test hook: observes every Go() by name
	hook     func()            // AtEvent's: runs once hookAt events have fired
	hookAt   uint64
}

// turn is one entry of Sim.turns, by its event: a goroutine Go made (a
// goFunc, named name), a parked one a wake or teardown released (its
// parker), or any other event, which fires on the scheduler goroutine (a
// record Chan.Await resumes, the AtEvent hook).
type turn struct {
	ev   Event
	name any
}

// goFunc is a goroutine's body as a turn's event: take starts it on a
// goroutine of its own, where Fire would run it on the caller's.
type goFunc func()

func (f goFunc) Fire() { f() }

// poolSize bounds Sim.pool: enough for the parks of one busy instant, not for
// a whole spawn wave's, which would stay live for the rest of the run.
const poolSize = 256

// Stats counts the scheduler's own work.
type Stats struct {
	Events      uint64 // events fired; a void deadline is dropped, not fired
	SameInstant uint64 // of Events, those due at the instant they were scheduled at
	PeakPending int    // high-water of events scheduled and not yet fired or dropped
	Digest      uint64 // a running mix of every fired event's (at, seq), in firing order
}

// New returns a fresh simulation with the clock at zero.
func New() *Sim {
	s := &Sim{}
	s.schedule.L = &s.mu
	return s
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Live returns the number of simulated goroutines currently alive (started
// via Go and not yet finished). It is the simulator's real footprint: each
// live goroutine costs a host stack whether running or parked.
func (s *Sim) Live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// PeakLive returns the high-water mark of Live over the simulation so far —
// the number that sizes the host RSS a run needs.
func (s *Sim) PeakLive() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peakLive
}

// Parks returns how many times a simulated goroutine has blocked so far —
// each one a hand-off to the scheduler and, later, one back.
func (s *Sim) Parks() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parks
}

// Stats returns the scheduler's counts so far.
func (s *Sim) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// SetSpawnObserver installs a test hook invoked (with s.mu held, so it must
// not call back into the Sim) for every Sim.Go with the goroutine's name.
// Pass nil to remove it.
func (s *Sim) SetSpawnObserver(fn func(name string)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spawnObs = fn
}

// AtEvent arms fn to run once n events have fired (Stats().Events == n),
// before the next one: a fault injected at an event boundary. fn runs on the
// scheduler goroutine without s.mu held, in a turn of its own that Stats
// does not count: the scheduler settles whatever it woke before it fires
// the next event. One hook is pending at a time; a later call replaces it.
func (s *Sim) AtEvent(n uint64, fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook, s.hookAt = fn, n
}

// Event is something the scheduler fires at a virtual instant. Fire runs on
// the scheduler goroutine under After's contract. The things that get
// scheduled over and over — a parked goroutine, a handled Chan, a network
// connection — are Events themselves, so scheduling them allocates nothing;
// After adapts a plain func.
type Event interface{ Fire() }

type funcEvent func()

func (f funcEvent) Fire() { f() }

// timer is a scheduled event.
type timer struct {
	at  time.Duration
	seq uint64
	ev  Event
}

func (t *timer) before(u *timer) bool {
	if t.at != u.at {
		return t.at < u.at
	}
	return t.seq < u.seq
}

// timerHeap is a 4-ary min-heap of timers ordered by (at, seq) — a total
// order, seq being unique, so the pop sequence is a function of what was
// pushed alone. It is typed rather than a container/heap.Interface because
// that interface moves every element through an `any`, which heap-allocates
// the 32-byte timer once per push and once per pop. Four children a node
// halve the depth a pop sifts through; both sifts move a hole, writing the
// timer once where it lands.
type timerHeap []timer

// push adds t, sifting it up to its place.
func (h *timerHeap) push(t timer) {
	*h = append(*h, t)
	a := *h
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !t.before(&a[parent]) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = t
}

// pop removes and returns the earliest timer; the heap must not be empty.
func (h *timerHeap) pop() timer {
	a := *h
	top := a[0]
	n := len(a) - 1
	last := a[n]
	a[n] = timer{} // drop the event reference
	a = a[:n]
	*h = a
	if n == 0 {
		return top
	}
	i := 0
	for c := 1; c < n; c = 4*i + 1 {
		kids := a[c:min(c+4, n)]
		least := 0
		for j := 1; j < len(kids); j++ {
			if kids[j].before(&kids[least]) {
				least = j
			}
		}
		if !kids[least].before(&last) {
			break
		}
		a[i] = kids[least]
		i = c + least
	}
	a[i] = last
	return top
}

// After schedules fn to run at now+d. fn executes on the scheduler
// goroutine and must not block; it typically wakes a parked goroutine or
// enqueues a message. d < 0 is treated as 0.
func (s *Sim) After(d time.Duration, fn func()) { s.AfterEvent(d, funcEvent(fn)) }

// AfterEvent is After for a caller that is, or already holds, the object to
// fire: nothing is allocated when ev is a pointer.
func (s *Sim) AfterEvent(d time.Duration, ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.afterLocked(d, ev)
}

// afterLocked takes ev's seq and queues it: on the same-instant FIFO when it
// is due now, on the heap otherwise. A parker counts the timers that hold it.
func (s *Sim) afterLocked(d time.Duration, ev Event) {
	s.seq++
	if p, ok := ev.(*parker); ok {
		p.refs++
	}
	if d <= 0 {
		s.ready.push(ev)
		s.readySeq.push(uint32(s.seq))
	} else {
		s.timers.push(timer{at: s.now + d, seq: s.seq, ev: ev})
	}
	if n := s.pending(); n > s.stats.PeakPending {
		s.stats.PeakPending = n
	}
}

// Go makes fn a simulated goroutine. Its name is read by panic
// diagnostics and the spawn observer only: a string, or any value fmt
// prints — a fmt.Stringer such as a process — formatted only when one of
// them asks. Go may be called before Run or from inside any simulated
// goroutine; fn runs in its turn (Sim.turns) once Run takes it, so a Go
// after Run has returned never runs unless Run is called again.
func (s *Sim) Go(name any, fn func()) {
	s.mu.Lock()
	s.live++
	if s.live > s.peakLive {
		s.peakLive = s.live
	}
	if s.spawnObs != nil {
		s.spawnObs(fmt.Sprint(name))
	}
	s.turns.push(turn{goFunc(fn), name})
	s.mu.Unlock()
}

// start runs fn as a simulated goroutine. Caller holds s.mu.
func (s *Sim) start(name any, fn func()) {
	s.runnable++
	go func() {
		defer func() {
			if r := recover(); r != nil {
				s.mu.Lock()
				if s.panicked == nil {
					s.panicked = fmt.Sprintf("vtime goroutine %q panicked: %v", fmt.Sprint(name), r)
				}
				s.mu.Unlock()
			}
			s.mu.Lock()
			s.runnable--
			s.live--
			if s.runnable == 0 {
				s.schedule.Signal()
			}
			s.mu.Unlock()
		}()
		fn()
	}()
}

// parker is one parked (blocked) simulated goroutine, and the whole cost of
// parking it: the goroutine sleeps on cond, teardown finds it through
// prev/next, the Chan or WaitGroup it waits on queues it through link, and as
// an Event it is its own Sleep or receive-deadline timer. wake and abort are
// idempotent and must be called with s.mu held.
type parker struct {
	s          *Sim
	cond       sync.Cond // on s.mu
	prev, next *parker   // s.parked
	link       *parker   // next in the waitList this parker is queued on
	resume     *Resume   // set: a record waits on it (Chan.Await), not a goroutine
	refs       int32     // its waiter and the queued timers that hold it: see release
	fired      bool      // woken already: a timer that still holds it is void
	aborted    bool      // woken by teardown
}

// wake unparks the goroutine.
func (p *parker) wake() { p.fire(false) }

// abort unparks the goroutine with a teardown signal: its wait returns
// false.
func (p *parker) abort() { p.fire(true) }

func (p *parker) fire(aborted bool) {
	if p.fired {
		return
	}
	p.fired, p.aborted = true, aborted
	if r := p.resume; r != nil {
		p.resume = nil
		if !p.s.stopped {
			p.s.turns.push(turn{ev: r.ev})
		}
		p.s.release(p)
		return
	}
	// Unlink from s.parked, keeping no pointer to a neighbour: a void
	// deadline stays in the timer heap until its instant comes up.
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		p.s.parked = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	}
	p.prev, p.next = nil, nil
	p.s.turns.push(turn{ev: p})
}

// Fire is the parker as a timer: the end of a Sleep, or a receive deadline.
// The scheduler calls fireHeld instead.
func (p *parker) Fire() {
	p.s.mu.Lock()
	p.wake()
	p.s.mu.Unlock()
}

func (p *parker) fireHeld() { p.wake() }

// heldEvent is an Event of this package's own: fireNext calls fireHeld under
// the hold of s.mu it already has, and fireHeld returns with s.mu held.
type heldEvent interface{ fireHeld() }

// wait blocks until wake or abort; it releases and reacquires s.mu and
// returns false on teardown.
func (p *parker) wait() bool {
	for !p.fired {
		p.cond.Wait()
	}
	return !p.aborted
}

// park marks the calling simulated goroutine blocked and returns a parker
// to wait on. The caller must hold s.mu and have seen s.stopped false under
// it: teardown aborts what is on s.parked once, and nothing may join later.
// Its waiter hands the parker back with release.
func (s *Sim) park() *parker {
	p := s.parker(nil)
	s.parkOn(p)
	return p
}

// parker returns an unfired parker from s.pool, or a new one, holding one
// reference: its waiter's, or for a record (r set; Chan.Await) the wake's —
// woken, it queues r's event as a turn instead of releasing a goroutine, and
// as it parks nothing it neither counts as a park nor leaves runnable.
// Caller holds s.mu.
func (s *Sim) parker(r *Resume) *parker {
	var p *parker
	if n := len(s.pool); n > 0 {
		p, s.pool[n-1], s.pool = s.pool[n-1], nil, s.pool[:n-1]
	} else {
		p = &parker{s: s}
		p.cond.L = &s.mu
	}
	p.refs, p.fired, p.aborted, p.resume = 1, false, false, r
	return p
}

// release drops one reference to p: its waiter's, once the waiter has
// returned from wait and taken p off every waitList, or a queued timer's,
// when the timer pops. With the last one gone p goes back to s.pool — unless
// teardown aborted it or the pool is full. A Waiter's parker is never
// released. Caller holds s.mu.
func (s *Sim) release(p *parker) {
	if p.refs--; p.refs == 0 && !p.aborted && len(s.pool) < poolSize {
		s.pool = append(s.pool, p)
	}
}

// parkOn is park on a parker the caller owns (a Waiter's): one that is bound
// to s and not parked now.
func (s *Sim) parkOn(p *parker) {
	p.fired, p.aborted = false, false
	if p.next = s.parked; p.next != nil {
		p.next.prev = p
	}
	s.parked = p
	s.parks++
	s.runnable--
	if s.runnable == 0 {
		s.schedule.Signal()
	}
}

// waitList is a FIFO of parked goroutines, threaded through the parkers.
type waitList struct{ head, tail *parker }

func (l *waitList) push(p *parker) {
	if l.tail == nil {
		l.head = p
	} else {
		l.tail.link = p
	}
	l.tail = p
}

// pop removes and returns the longest waiter, nil when there is none.
func (l *waitList) pop() *parker {
	p := l.head
	if p != nil {
		if l.head = p.link; l.head == nil {
			l.tail = nil
		}
		p.link = nil
	}
	return p
}

// remove unlinks p if it is still queued (whoever woke it may have popped it).
func (l *waitList) remove(p *parker) {
	var prev *parker
	for q := l.head; q != nil; prev, q = q, q.link {
		if q != p {
			continue
		}
		if prev == nil {
			l.head = p.link
		} else {
			prev.link = p.link
		}
		if l.tail == p {
			l.tail = prev
		}
		p.link = nil
		return
	}
}

// Sleep blocks the calling simulated goroutine for d of virtual time.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	p := s.park()
	s.afterLocked(d, p)
	p.wait()
	s.release(p)
	s.mu.Unlock()
}

// Run drives the simulation until every simulated goroutine has either
// finished or parked with no pending timers, then tears down any still
// parked goroutines (their blocking calls return "closed"/false) and
// returns the final virtual time. It is one loop: once the runnable
// goroutines have parked it takes the next turn, or else fires the next
// event, or at quiescence stops the simulation and aborts what is parked
// onto the turns; teardown fires a timer only while a goroutine is live.
// Run panics if a simulated goroutine panicked.
func (s *Sim) Run() time.Duration {
	s.mu.Lock()
	for {
		s.settle()
		switch {
		case s.turns.len() > 0:
			s.take()
		case s.pending() > 0 && (!s.stopped || s.live > 0):
			if s.hook != nil && s.stats.Events == s.hookAt {
				s.turns.push(turn{ev: funcEvent(s.hook)})
				s.hook = nil
			} else {
				s.fireNext()
			}
		case !s.stopped:
			s.stopped = true
			for s.parked != nil {
				s.parked.abort()
			}
		default:
			s.shed()
			end := s.now
			s.mu.Unlock()
			return end
		}
	}
}

// shed drops the arrays the heap and the same-instant FIFO grew to in their
// bursts, keeping only what is still pending (teardown fires no timer once
// no goroutine lives): a Sim outlives its Run wherever a rig is read after
// it. Inside Run they stay, since the next burst would grow them again.
// Caller holds s.mu.
func (s *Sim) shed() {
	s.timers = append(timerHeap(nil), s.timers...)
	s.ready.shed()
	s.readySeq.shed()
}

// take runs the next turn: it starts or releases a goroutine, which runs
// until it parks or ends, or fires an event with s.mu released. A drained
// queue that grew past poolSize (machine boot queues a turn a node) drops
// its array. Caller holds s.mu.
func (s *Sim) take() {
	t := s.turns.pop()
	if s.turns.len() == 0 && cap(s.turns.buf) > poolSize {
		s.turns.buf = nil
	}
	switch ev := t.ev.(type) {
	case *parker:
		s.runnable++
		ev.cond.Signal()
	case goFunc:
		s.start(t.name, ev)
	default:
		s.mu.Unlock()
		ev.Fire()
		s.mu.Lock()
	}
}

// settle waits until no simulated goroutine is runnable, then re-raises
// the panic of one that panicked. Caller holds s.mu.
func (s *Sim) settle() {
	for s.runnable > 0 {
		s.schedule.Wait()
	}
	if s.panicked != nil {
		p := s.panicked
		s.mu.Unlock()
		panic(p)
	}
}

// pending counts the events scheduled and not yet fired. Caller holds s.mu.
func (s *Sim) pending() int { return len(s.timers) + s.ready.len() }

// fireNext fires the next event in (at, seq) order on the scheduler
// goroutine. A heap timer due now was scheduled before the clock got here —
// else it would be on the FIFO — so its seq is below every FIFO entry's: the
// heap's earliest goes first if it is due now, then the FIFO in order, and
// only then does the clock advance to the heap's earliest. A parker that
// something else woke first is a void deadline: it is dropped without
// advancing the clock. vtime's own events fire under the caller's hold of
// s.mu; any other Event takes s.mu itself, so it is released around the
// call. Caller holds s.mu.
func (s *Sim) fireNext() {
	var t timer
	same := s.ready.len() > 0 && (len(s.timers) == 0 || s.timers[0].at > s.now)
	if same {
		// Fewer than 2^32 events are scheduled while one waits its turn.
		t = timer{at: s.now, seq: s.seq - uint64(uint32(s.seq)-s.readySeq.pop()), ev: s.ready.pop()}
	} else {
		t = s.timers.pop()
	}
	ev := t.ev
	if p, ok := ev.(*parker); ok {
		s.release(p) // the timer's reference; the waiter holds its own
		if p.fired {
			return
		}
	}
	s.now = t.at
	s.stats.Events++
	s.stats.Digest = mixEvent(s.stats.Digest, t)
	if same {
		s.stats.SameInstant++
	}
	if h, ok := ev.(heldEvent); ok {
		h.fireHeld()
		return
	}
	s.mu.Unlock()
	ev.Fire()
	s.mu.Lock()
}

// mixEvent folds a fired event's (at, seq) into the digest d. Each step
// multiplies by an odd constant and rotates, so the digest depends on the
// order of what it folds, not only on the set.
func mixEvent(d uint64, t timer) uint64 {
	d = bits.RotateLeft64((d^uint64(t.at))*0x9e3779b97f4a7c15, 31)
	return bits.RotateLeft64((d^t.seq)*0xbf58476d1ce4e5b9, 27)
}

// Stopped reports whether Run has completed and the simulation is torn down.
func (s *Sim) Stopped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopped
}
