package vtime

import "time"

// Chan is an unbounded FIFO message queue with virtual-time blocking
// receive semantics. Sends never block (the queue is unbounded, matching
// kernel socket buffers in the simulated network). The zero value is not
// usable; call NewChan.
type Chan[T any] struct {
	s      *Sim
	q      []T
	wakers []*parker // parked receivers, FIFO (stale fired entries skipped)
	closed bool

	// Handler-mode state (see Handle): instead of parking a receiver
	// goroutine, deliveries run as zero-delay scheduler events.
	handler  func(T, bool)
	hPending bool // a delivery event is scheduled and has not run yet
	hDone    bool // the terminal ok=false callback has been delivered
}

// NewChan returns an empty open channel bound to s.
func NewChan[T any](s *Sim) *Chan[T] {
	return &Chan[T]{s: s}
}

// Send enqueues v and wakes one blocked receiver, if any. Send on a closed
// channel is a no-op (the value is dropped), mirroring delivery to a closed
// socket rather than panicking.
func (c *Chan[T]) Send(v T) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	if c.closed {
		return
	}
	c.q = append(c.q, v)
	if c.handler != nil {
		c.pumpLocked()
		return
	}
	c.wakeOneLocked()
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
	if len(c.wakers) > 0 {
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

// popLocked removes and returns the head of the (non-empty) queue. The
// vacated slot is zeroed: the backing array outlives the pop — until an
// append happens to reallocate it — and would otherwise keep the last few
// values of a long-lived channel (a resident listener's accepted
// connections, a link's messages) reachable for as long as the channel.
// Caller must hold s.mu.
func (c *Chan[T]) popLocked() T {
	v := c.q[0]
	var zero T
	c.q[0] = zero
	c.q = c.q[1:]
	return v
}

// pumpLocked schedules the next handler delivery if one is due and none is
// in flight. Caller must hold s.mu.
func (c *Chan[T]) pumpLocked() {
	if c.handler == nil || c.hPending || c.hDone {
		return
	}
	if len(c.q) == 0 && !c.closed {
		return
	}
	c.hPending = true
	c.s.afterLocked(0, c.deliverOne)
}

// deliverOne runs on the scheduler goroutine: it pops one value (or the
// terminal close) and invokes the handler outside the scheduler lock.
func (c *Chan[T]) deliverOne() {
	c.s.mu.Lock()
	fn := c.handler
	if fn == nil { // Unhandled between scheduling and delivery
		c.hPending = false
		c.s.mu.Unlock()
		return
	}
	if len(c.q) > 0 {
		v := c.popLocked()
		c.s.mu.Unlock()
		fn(v, true)
		c.s.mu.Lock()
		c.hPending = false
		c.pumpLocked()
		c.s.mu.Unlock()
		return
	}
	c.hPending = false
	if c.closed && !c.hDone {
		c.hDone = true
		c.s.mu.Unlock()
		var zero T
		fn(zero, false)
		return
	}
	c.s.mu.Unlock()
}

func (c *Chan[T]) wakeOneLocked() {
	for len(c.wakers) > 0 {
		w := c.wakers[0]
		c.wakers = c.wakers[1:]
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
	for _, w := range c.wakers {
		w.wake()
	}
	c.wakers = nil
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
// the receiver — or, when timed, a timer at the deadline d from now does.
func (c *Chan[T]) recv(d time.Duration, timed bool) (v T, ok, timedOut bool) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	if c.handler != nil {
		panic("vtime: Recv on a handled Chan")
	}
	deadline := c.s.now + d
	for {
		if len(c.q) > 0 {
			return c.popLocked(), true, false
		}
		if c.closed || c.s.stopped {
			return v, false, false
		}
		if timed && c.s.now >= deadline {
			return v, false, true
		}
		p := c.s.park()
		c.wakers = append(c.wakers, p)
		var cancel func()
		if timed {
			cancel = c.s.afterCancellableLocked(deadline-c.s.now, func() {
				c.s.mu.Lock()
				// Waking a goroutine that was already woken by a Send is a
				// no-op; the parker wake is idempotent.
				p.wake()
				c.s.mu.Unlock()
			})
		}
		woken := p.wait()
		if timed {
			cancel()
		}
		if !woken {
			return v, false, false
		}
	}
}

// TryRecv receives without blocking. ok is false when no value is queued.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	if len(c.q) == 0 {
		return v, false
	}
	return c.popLocked(), true
}

// Len returns the number of queued values.
func (c *Chan[T]) Len() int {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return len(c.q)
}

// Closed reports whether Close has been called.
func (c *Chan[T]) Closed() bool {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.closed
}

// WaitGroup is a virtual-time analogue of sync.WaitGroup.
type WaitGroup struct {
	s      *Sim
	n      int
	wakers []*parker
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
		for _, wk := range w.wakers {
			wk.wake()
		}
		w.wakers = nil
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
		w.wakers = append(w.wakers, p)
		if !p.wait() {
			return
		}
	}
}
