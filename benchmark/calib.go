package main

import (
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. On a shared host the same code runs tens of
// percent faster or slower from one minute to the next (measured here: the
// median launch_wide rep drifted between 5.3 s and 9.8 s within half an
// hour), which no amount of repetition inside a run averages out. Every
// timed section is therefore bracketed by a fixed calibration kernel that
// shares nothing with the code under test, and the host-time metrics are
// reported in reference-host seconds: measured × calibRef / calibration.
// Across four ten-seed studies that halved the run-to-run spread when the
// host drifted and never widened it by more than the kernel's own noise.

// calibRef is the kernel's duration on the 2-core reference host when it is
// quiet; it only fixes the unit, so that a normalised second reads like a
// second there.
const calibRef = 400 * time.Millisecond

const (
	calibEvents     = 300000
	calibWorkers    = 4
	calibHeapSize   = 1 << 16
	calibTableSlots = 4 << 20 // × 8 B = 32 MiB: every access misses the caches
)

var (
	calibHeap  []uint64
	calibTable []uint64
)

func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// calibInit maps the table outside the Go heap, so the kernel's working set
// neither feeds the GC's pacing nor shows up in live_MB (it does add 32 MiB
// to rss_peak_MB, the same on every run).
func calibInit() {
	b, err := syscall.Mmap(-1, 0, 8*calibTableSlots, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("benchmark: mmap for the calibration kernel: " + err.Error())
	}
	calibTable = unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), calibTableSlots)
	for i := range calibTable {
		calibTable[i] = uint64(i)
	}
	calibHeap = make([]uint64, 0, calibHeapSize+calibWorkers)
}

func heapPush(h []uint64, v uint64) []uint64 {
	h = append(h, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []uint64) ([]uint64, uint64) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && h[l] < h[m] {
			m = l
		}
		if r < n && h[r] < h[m] {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return h, top
}

// calibrate runs the kernel once and returns how long it took. The kernel
// is a frozen miniature of what the simulator does per event: a scheduler
// pops the earliest timer off a heap and wakes a parked worker through a
// mutex and condition variable; the worker touches a large table, hashes a
// little, schedules its next timer and parks again. It allocates nothing
// after the first call.
func calibrate() time.Duration {
	if calibTable == nil {
		calibInit()
	}
	t0 := time.Now()
	var mu sync.Mutex
	sched := sync.NewCond(&mu)
	wake := make([]*sync.Cond, calibWorkers)
	turn := -1 // the worker whose turn it is; -1 = the scheduler's
	done := false
	h := calibHeap[:0]
	x := uint64(42)
	for i := 0; i < calibHeapSize; i++ {
		x = lcg(x)
		h = heapPush(h, x>>8)
	}
	var wg sync.WaitGroup
	for w := 0; w < calibWorkers; w++ {
		w := w
		wake[w] = sync.NewCond(&mu)
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := uint64(w + 1)
			mu.Lock()
			defer mu.Unlock()
			for {
				for turn != w && !done {
					wake[w].Wait()
				}
				if done {
					return
				}
				y = lcg(y)
				s := y + calibTable[y>>42]
				for i := 0; i < 256; i++ {
					s = (s ^ uint64(i)) * 1099511628211
				}
				h = heapPush(h, s>>8)
				turn = -1
				sched.Signal()
			}
		}()
	}
	mu.Lock()
	for i := 0; i < calibEvents; i++ {
		var at uint64
		h, at = heapPop(h)
		turn = int(at % calibWorkers)
		wake[turn].Signal()
		for turn != -1 {
			sched.Wait()
		}
	}
	done = true
	for _, c := range wake {
		c.Signal()
	}
	mu.Unlock()
	wg.Wait()
	return time.Since(t0)
}
