package vtime

import "time"

// Chan is an unbounded FIFO message queue with virtual-time blocking
// receive semantics. Sends never block (the queue is unbounded, matching
// kernel socket buffers in the simulated network). The zero value is not
// usable; call NewChan, or Init on a Chan held by value.
type Chan[T any] struct {
	s      *Sim
	q      queue[T]
	wakers waitList // parked receivers

	// Handler-mode state (see Handle): instead of parking a receiver
	// goroutine, deliveries run as zero-delay scheduler events.
	handler  func(T, bool)
	hPending bool // a delivery event is scheduled and has not run yet
	hDone    bool // the terminal ok=false callback has been delivered

	closed bool
}

// NewChan returns an empty open channel bound to s.
func NewChan[T any](s *Sim) *Chan[T] {
	return &Chan[T]{s: s}
}

// Init binds a zero Chan to s where it lies, for an owner that holds its
// channels by value (a connection is one allocation, queues included).
func (c *Chan[T]) Init(s *Sim) { c.s = s }

// Send enqueues v and wakes one blocked receiver, if any. Send on a closed
// channel is a no-op (the value is dropped), mirroring delivery to a closed
// socket rather than panicking.
func (c *Chan[T]) Send(v T) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	if c.closed {
		return
	}
	c.q.push(v)
	if c.handler != nil {
		c.pumpLocked()
		return
	}
	c.wakeOneLocked()
}

// queue is a FIFO on one backing array: a queue that drains starts again
// from the front, and one that never drains slides back over its popped
// slots once they are most of the array, so only a backlog that really grows
// makes the array grow. A popped slot is zeroed: the array outlives the pop
// and would otherwise keep the last few values of a long-lived queue (a
// resident listener's accepted connections, a link's messages) reachable.
type queue[T any] struct {
	buf  []T // buf[head:] is queued
	head int // 0 whenever the queue is empty
}

func (q *queue[T]) len() int { return len(q.buf) - q.head }

func (q *queue[T]) push(v T) {
	if n := len(q.buf); n == cap(q.buf) && q.head > n/2 {
		live := copy(q.buf, q.buf[q.head:])
		clear(q.buf[live:])
		q.buf, q.head = q.buf[:live], 0
	}
	q.buf = append(q.buf, v)
}

// shed moves what is queued to an array of its own size, nil when the
// queue is empty, letting go of the one it grew to.
func (q *queue[T]) shed() {
	q.buf, q.head = append([]T(nil), q.buf[q.head:]...), 0
}

// pop removes and returns the head of the (non-empty) queue.
func (q *queue[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// Handle switches the channel to event-driven delivery: each queued and
// future value is delivered by calling fn(v, true) on the vtime scheduler
// goroutine, one value per zero-delay timer, so deliveries keep the
// scheduler's deterministic (time, seq) order without a parked receiver
// goroutine. After Close, once the queue drains, fn is called exactly once
// with ok=false. fn must not block (no Sleep/Recv/Compute): it may inspect
// state, Send on other channels, call Sim.After, or start goroutines.
// Handle may not be mixed with blocking Recv while installed; Unhandle
// returns the channel to blocking mode (and permits a later re-install).
func (c *Chan[T]) Handle(fn func(v T, ok bool)) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	if c.handler != nil {
		panic("vtime: Chan.Handle installed twice")
	}
	if c.wakers.head != nil {
		panic("vtime: Chan.Handle with receivers parked on the channel")
	}
	c.handler = fn
	c.pumpLocked()
}

// Unhandle detaches the handler installed by Handle and returns the
// channel to blocking-receive mode. Values not yet delivered stay queued
// for Recv. The natural call site is the handler itself, recognizing the
// last message of the traffic it owns and handing the stream back — a
// framing layer that multiplexes a phase of a connection's life.
// Re-installing a handler later is allowed.
func (c *Chan[T]) Unhandle() {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	c.handler = nil
}

// pumpLocked schedules the next handler delivery if one is due and none is
// in flight. Caller must hold s.mu.
func (c *Chan[T]) pumpLocked() {
	if c.handler == nil || c.hPending || c.hDone {
		return
	}
	if c.q.len() == 0 && !c.closed {
		return
	}
	c.hPending = true
	c.s.afterLocked(0, (*delivery[T])(c))
}

// delivery is a handled Chan as the Event pumpLocked schedules — the Chan
// itself under another name, which keeps Fire out of Chan's method set.
type delivery[T any] Chan[T]

// Fire is fireHeld under its own hold of s.mu; the scheduler calls
// fireHeld.
func (d *delivery[T]) Fire() {
	d.s.mu.Lock()
	d.fireHeld()
	d.s.mu.Unlock()
}

// fireHeld runs on the scheduler goroutine with s.mu held: it pops one value
// (or the terminal close) and invokes the handler with s.mu released.
func (d *delivery[T]) fireHeld() {
	c := (*Chan[T])(d)
	fn := c.handler
	if fn == nil { // Unhandled between scheduling and delivery
		c.hPending = false
		return
	}
	if c.q.len() > 0 {
		v := c.q.pop()
		c.s.mu.Unlock()
		fn(v, true)
		c.s.mu.Lock()
		c.hPending = false
		c.pumpLocked()
		return
	}
	c.hPending = false
	if c.closed && !c.hDone {
		c.hDone = true
		c.s.mu.Unlock()
		var zero T
		fn(zero, false)
		c.s.mu.Lock()
	}
}

// wakeOneLocked wakes the longest-parked receiver, skipping any already
// woken (by its deadline, by teardown) that has not left the list yet.
func (c *Chan[T]) wakeOneLocked() {
	for w := c.wakers.pop(); w != nil; w = c.wakers.pop() {
		if !w.fired {
			w.wake()
			return
		}
	}
}

// Close marks the channel closed and wakes all blocked receivers. Pending
// queued values remain receivable.
func (c *Chan[T]) Close() {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for w := c.wakers.pop(); w != nil; w = c.wakers.pop() {
		w.wake()
	}
	c.pumpLocked()
}

// Recv blocks in virtual time until a value is available or the channel is
// closed and drained. ok is false when the channel is closed and empty or
// the simulation has been torn down.
func (c *Chan[T]) Recv() (v T, ok bool) {
	v, ok, _ = c.recv(0, false)
	return v, ok
}

// RecvTimeout is Recv with a virtual-time deadline. timedOut reports the
// deadline expiring before a value arrived; ok follows Recv's contract.
func (c *Chan[T]) RecvTimeout(d time.Duration) (v T, ok, timedOut bool) {
	return c.recv(d, true)
}

// recv is the one wait loop: park until a Send, a Close or teardown wakes
// the receiver — or, when timed, its parker scheduled as the timer at the
// deadline d from now does, and then nobody has taken the receiver off
// c.wakers, so it leaves by itself.
func (c *Chan[T]) recv(d time.Duration, timed bool) (v T, ok, timedOut bool) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	if c.handler != nil {
		panic("vtime: Recv on a handled Chan")
	}
	deadline := c.s.now + d
	for {
		if c.q.len() > 0 {
			return c.q.pop(), true, false
		}
		if c.closed || c.s.stopped {
			return v, false, false
		}
		if timed && c.s.now >= deadline {
			return v, false, true
		}
		p := c.s.park()
		c.wakers.push(p)
		if timed {
			c.s.afterLocked(deadline-c.s.now, p)
		}
		woken := p.wait()
		if timed {
			c.wakers.remove(p)
		}
		c.s.release(p)
		if !woken {
			return v, false, false
		}
	}
}

// Resume is how a record that no goroutine carries waits on a Chan (Await):
// a wake fires the record's event where a receiver parked on the channel
// would have run — behind the event or goroutine whose Send or Close woke
// it, before the next event, taking no seq of its own — so a record that
// carries what a goroutine did fires the events it fired, in their order.
// It is held by value in the record; Init binds it to the record's event.
type Resume struct{ ev Event }

// Init binds r to ev.
func (r *Resume) Init(ev Event) { r.ev = ev }

// Await is Recv for a record: it takes the value queued now (ok), or reports
// the channel closed and drained (neither ok nor wait); otherwise wait is
// true and r's event fires once a Send or Close comes, after which the
// record calls Await again. It blocks nothing and counts no park.
func (c *Chan[T]) Await(r *Resume) (v T, ok, wait bool) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	if c.handler != nil {
		panic("vtime: Await on a handled Chan")
	}
	if c.q.len() > 0 {
		return c.q.pop(), true, false
	}
	if c.closed || c.s.stopped {
		return v, false, false
	}
	c.wakers.push(c.s.parker(r))
	return v, false, true
}

// TryRecv receives without blocking. ok is false when no value is queued.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	if c.q.len() == 0 {
		return v, false
	}
	return c.q.pop(), true
}

// WaitGroup is a virtual-time analogue of sync.WaitGroup.
type WaitGroup struct {
	s      *Sim
	n      int
	wakers waitList
}

// NewWaitGroup returns a WaitGroup bound to s.
func NewWaitGroup(s *Sim) *WaitGroup { return &WaitGroup{s: s} }

// Add adds delta to the counter, waking waiters when it reaches zero.
func (w *WaitGroup) Add(delta int) {
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	w.n += delta
	if w.n < 0 {
		panic("vtime: negative WaitGroup counter")
	}
	if w.n == 0 {
		for p := w.wakers.pop(); p != nil; p = w.wakers.pop() {
			p.wake()
		}
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks in virtual time until the counter is zero.
func (w *WaitGroup) Wait() {
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	for w.n > 0 {
		if w.s.stopped {
			return
		}
		p := w.s.park()
		w.wakers.push(p)
		ok := p.wait()
		w.s.release(p)
		if !ok {
			return
		}
	}
}

// Waiter is the wait point of an operation one goroutine waits on while
// scheduler callbacks carry it out. It is held by value in the operation's
// own record and parks its goroutine on a parker of its own, so waiting
// allocates nothing. Wake releases the goroutine in Wait; a Wake that comes
// first is kept for the next Wait. The zero value is not usable; call Init
// where the Waiter lies, and do not copy it afterwards.
type Waiter struct {
	p      parker
	woken  bool // a Wake no Wait has consumed yet
	parked bool // the goroutine is in Wait
}

// Init binds the Waiter to s.
func (w *Waiter) Init(s *Sim) {
	w.p.s = s
	w.p.cond.L = &s.mu
}

// Wait blocks in virtual time until Wake; it returns false when the
// simulation is torn down first.
func (w *Waiter) Wait() bool {
	s := w.p.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for !w.woken {
		if s.stopped {
			return false
		}
		s.parkOn(&w.p)
		w.parked = true
		ok := w.p.wait()
		w.parked = false
		if !ok {
			return false
		}
	}
	w.woken = false
	return true
}

// Wake releases the goroutine in Wait, or the next one to call it.
func (w *Waiter) Wake() {
	s := w.p.s
	s.mu.Lock()
	defer s.mu.Unlock()
	w.woken = true
	if w.parked {
		w.p.wake()
	}
}
