package vtime

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// refHeap is the container/heap implementation the scheduler ran on before
// timerHeap was typed, kept as the reference the typed heap is compared
// against.
type refHeap []timer

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(timer)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// TestTimerOrderMatchesReferenceHeap drives 10^5 random pushes, pops and
// cancels through the typed heap and the reference and compares what comes
// out, in the scheduler's own usage: timestamps never below the last pop
// (the clock), many ties broken by seq, void deadlines (a parker something
// else woke first) discarded when they surface.
func TestTimerOrderMatchesReferenceHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var typed timerHeap
	var ref refHeap
	var now time.Duration
	var seq uint64
	var cancels []*parker // receivers whose deadline timers may still be queued
	popBoth := func() (timer, timer, bool) {
		for len(typed) > 0 {
			if len(ref) != len(typed) {
				t.Fatalf("typed heap holds %d timers, reference %d", len(typed), len(ref))
			}
			a, b := typed.pop(), heap.Pop(&ref).(timer)
			if a.at != b.at || a.seq != b.seq {
				t.Fatalf("pop order diverged: typed (%v, %d), reference (%v, %d)", a.at, a.seq, b.at, b.seq)
			}
			if p, ok := a.ev.(*parker); !ok || !p.fired {
				return a, b, true
			}
		}
		return timer{}, timer{}, false
	}
	pops := 0
	for op := 0; op < 100000; op++ {
		switch r := rng.Intn(10); {
		case r < 5: // push, with few distinct offsets so ties are common
			seq++
			tm := timer{at: now + time.Duration(rng.Intn(8))*time.Microsecond, seq: seq}
			if rng.Intn(4) == 0 {
				p := &parker{}
				tm.ev = p
				cancels = append(cancels, p)
			}
			typed.push(tm)
			heap.Push(&ref, tm)
		case r < 9:
			if a, _, ok := popBoth(); ok {
				if a.at < now {
					t.Fatalf("popped a timer at %v after the clock reached %v", a.at, now)
				}
				now = a.at
				pops++
			}
		case len(cancels) > 0:
			i := rng.Intn(len(cancels))
			cancels[i].fired = true
			cancels = append(cancels[:i], cancels[i+1:]...)
		}
	}
	for {
		if _, _, ok := popBoth(); !ok {
			break
		}
		pops++
	}
	if len(ref) != 0 {
		t.Fatalf("reference heap still holds %d timers", len(ref))
	}
	if pops < 10000 {
		t.Fatalf("only %d live pops compared; the script is not exercising the heap", pops)
	}
}

// TestTimerPushPopDoesNotAllocate pins what the typed heap and the
// same-instant FIFO are for: once the backing array has grown, scheduling and
// firing a timer allocates nothing.
func TestTimerPushPopDoesNotAllocate(t *testing.T) {
	if size := unsafe.Sizeof(timer{}); size > 32 {
		t.Errorf("a timer is %d bytes, want at most 32 (instant, seq, one two-word event)", size)
	}
	var h timerHeap
	var ev Event = funcEvent(func() {})
	for i := 0; i < 64; i++ {
		h.push(timer{at: time.Duration(i), seq: uint64(i), ev: ev})
	}
	seq := uint64(64)
	if n := testing.AllocsPerRun(1000, func() {
		seq++
		h.push(timer{at: time.Duration(seq % 7), seq: seq, ev: ev})
		h.pop()
	}); n != 0 {
		t.Errorf("push+pop allocates %v objects, want 0", n)
	}
	// The same-instant FIFO, once grown: a backlog that never drains and
	// one that does.
	var q queue[Event]
	for i := 0; i < 64; i++ {
		q.push(ev)
	}
	if n := testing.AllocsPerRun(1000, func() {
		q.push(ev)
		q.pop()
	}); n != 0 {
		t.Errorf("FIFO push+pop under a backlog allocates %v objects, want 0", n)
	}
	for q.len() > 0 {
		q.pop()
	}
	if n := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 64; i++ {
			q.push(ev)
		}
		for q.len() > 0 {
			q.pop()
		}
	}); n != 0 {
		t.Errorf("filling and draining the FIFO allocates %v objects, want 0", n)
	}
}
