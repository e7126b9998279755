package vtime

import "sync"

// Streams is a set of Chans keyed by stream: the demultiplexed receive
// side of one connection whose frames belong to many logical streams (the
// per-tag collective streams of a master connection). A sorter Sends each
// value to its key's queue; each stream's consumer Recvs from Q(key) and
// Drops the key when the stream ends. Queues are created on demand from
// either side, so a value may arrive before its consumer asks for it and
// the other way round. Fail ends every stream at once — present and
// future — and Err says why. The zero value is not usable; call
// NewStreams. All methods are safe for concurrent use.
type Streams[K comparable, T any] struct {
	s *Sim

	mu     sync.Mutex
	qs     map[K]*Chan[T] // made with the first queue
	spare  *Chan[T]       // the last queue Drop retired idle, for the next stream
	failed bool
	err    error
}

// NewStreams returns an empty open stream set bound to s.
func NewStreams[K comparable, T any](s *Sim) *Streams[K, T] {
	return &Streams[K, T]{s: s}
}

// Q returns the queue of stream k, creating it on demand. A queue created
// after Fail comes pre-closed, so a late subscriber observes the failure
// instead of parking forever.
func (m *Streams[K, T]) Q(k K) *Chan[T] {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.qs[k]
	if q == nil {
		if q, m.spare = m.spare, nil; q == nil {
			q = NewChan[T](m.s)
		}
		if m.failed {
			q.Close()
		}
		if m.qs == nil {
			m.qs = make(map[K]*Chan[T])
		}
		m.qs[k] = q
	}
	return q
}

// Send enqueues v on stream k (dropped, like any Send on a closed Chan,
// once the set has failed).
func (m *Streams[K, T]) Send(k K, v T) { m.Q(k).Send(v) }

// Drop retires stream k so keys do not accumulate across streams; values
// still queued on it are discarded. It is the stream's consumer that calls
// it, after the stream's last value: a queue retired empty and open, with
// nobody waiting on it, is kept — backing array and all — as the next
// stream's, so a link that carries one stream after another allocates a
// queue once.
func (m *Streams[K, T]) Drop(k K) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.qs[k]
	delete(m.qs, k)
	if q != nil && q.idle() {
		m.spare = q
	}
}

// idle reports whether c is as good as new: empty, open, nobody parked on
// it and no handler installed.
func (c *Chan[T]) idle() bool {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.q.len() == 0 && !c.closed && c.handler == nil && !c.hPending && c.wakers.head == nil
}

// Fail closes every queue, present and future, recording err as the cause
// (values already queued stay receivable). Only the first call counts.
func (m *Streams[K, T]) Fail(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed {
		return
	}
	m.failed, m.err, m.spare = true, err, nil
	// Under the lock: consumers finishing on other goroutines keep
	// Dropping keys while the queues close (Close never blocks).
	for _, q := range m.qs {
		q.Close()
	}
}

// Err returns the cause recorded by Fail, nil while the set is open.
func (m *Streams[K, T]) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}
