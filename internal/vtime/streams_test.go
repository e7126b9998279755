package vtime

import (
	"errors"
	"sync"
	"testing"
)

// TestStreams is the one contract every per-tag demultiplexer in the
// stack (tree links, FE↔master connections) relies on.
func TestStreams(t *testing.T) {
	cause := errors.New("link died")
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, s *Sim, m *Streams[uint32, string])
	}{
		{"a value sent before its consumer asks waits in its own stream", func(t *testing.T, s *Sim, m *Streams[uint32, string]) {
			m.Send(7, "seven")
			m.Send(8, "eight")
			if v, ok := m.Q(8).Recv(); !ok || v != "eight" {
				t.Errorf("stream 8: %q %v", v, ok)
			}
			if v, ok := m.Q(7).Recv(); !ok || v != "seven" {
				t.Errorf("stream 7: %q %v", v, ok)
			}
			if err := m.Err(); err != nil {
				t.Errorf("Err on an open set: %v", err)
			}
		}},
		{"a consumer parked before the value arrives is woken by it", func(t *testing.T, s *Sim, m *Streams[uint32, string]) {
			s.Go("sender", func() {
				s.Sleep(1)
				m.Send(7, "late")
			})
			if v, ok := m.Q(7).Recv(); !ok || v != "late" {
				t.Errorf("stream 7: %q %v", v, ok)
			}
		}},
		{"Drop retires the key: the next Q is a fresh queue", func(t *testing.T, s *Sim, m *Streams[uint32, string]) {
			old := m.Q(7)
			m.Send(7, "stale")
			m.Drop(7)
			if q := m.Q(7); q == old || q.Len() != 0 {
				t.Errorf("Q after Drop: same queue %v, %d queued", q == old, q.Len())
			}
		}},
		{"a queue retired empty and open is the next stream's", func(t *testing.T, s *Sim, m *Streams[uint32, string]) {
			old := m.Q(7)
			m.Send(7, "last")
			old.Recv()
			m.Drop(7)
			m.mu.Lock()
			_, kept := m.qs[7]
			m.mu.Unlock()
			if kept {
				t.Error("a dropped stream is still in the set")
			}
			if q := m.Q(8); q != old {
				t.Error("the retired queue was not reused")
			}
			if q := m.Q(9); q == old {
				t.Error("one retired queue serves two streams")
			}
			m.Send(8, "eight")
			if v, ok := m.Q(8).Recv(); !ok || v != "eight" {
				t.Errorf("stream 8 on the reused queue: %q %v", v, ok)
			}
		}},
		{"a queue retired by Fail is not reused", func(t *testing.T, s *Sim, m *Streams[uint32, string]) {
			old := m.Q(7)
			m.Drop(7)
			m.Fail(cause)
			m.Drop(7)
			if q := m.Q(8); q == old {
				t.Error("the spare survived Fail")
			}
		}},
		{"Fail wakes parked consumers, keeps queued values, and Err names the cause", func(t *testing.T, s *Sim, m *Streams[uint32, string]) {
			m.Send(8, "queued")
			s.Go("failer", func() {
				s.Sleep(1)
				m.Fail(cause)
			})
			if _, ok := m.Q(7).Recv(); ok {
				t.Error("parked consumer got a value from a failed set")
			}
			if v, ok := m.Q(8).Recv(); !ok || v != "queued" {
				t.Errorf("value queued before Fail: %q %v", v, ok)
			}
			if _, ok := m.Q(8).Recv(); ok {
				t.Error("drained stream still open after Fail")
			}
			if !errors.Is(m.Err(), cause) {
				t.Errorf("Err = %v", m.Err())
			}
		}},
		{"a queue created after Fail is pre-closed and sends to it are dropped", func(t *testing.T, s *Sim, m *Streams[uint32, string]) {
			m.Fail(cause)
			m.Send(9, "too late")
			if v, ok := m.Q(9).Recv(); ok {
				t.Errorf("late subscriber received %q", v)
			}
			m.Drop(9)
			if _, ok := m.Q(9).Recv(); ok {
				t.Error("queue re-created after Drop on a failed set is open")
			}
		}},
		{"Fail is one-shot: the first cause sticks", func(t *testing.T, s *Sim, m *Streams[uint32, string]) {
			m.Fail(cause)
			m.Fail(errors.New("second"))
			if !errors.Is(m.Err(), cause) {
				t.Errorf("Err = %v", m.Err())
			}
		}},
		{"Drop racing Fail is clean", func(t *testing.T, s *Sim, m *Streams[uint32, string]) {
			// Streams finishing on other goroutines retire their keys while
			// the link fails (the map is iterated by one, mutated by the
			// other): run with -race.
			for k := uint32(0); k < 64; k++ {
				m.Q(k)
			}
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for k := uint32(0); k < 64; k++ {
					m.Drop(k)
				}
			}()
			go func() {
				defer wg.Done()
				m.Fail(cause)
			}()
			wg.Wait()
			if _, ok := m.Q(3).Recv(); ok {
				t.Error("queue open after Fail")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			m := NewStreams[uint32, string](s)
			s.Go("test", func() { tc.run(t, s, m) })
			s.Run()
		})
		t.Run(tc.name+" (held by value)", func(t *testing.T) {
			// A set its owner holds by value, bound in place: NewStreams
			// sets nothing else.
			s := New()
			var owner struct{ m Streams[uint32, string] }
			owner.m.s = s
			s.Go("test", func() { tc.run(t, s, &owner.m) })
			s.Run()
		})
	}
}
