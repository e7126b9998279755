package cluster

import (
	"time"
)

// Snapshot is a point-in-time /proc-style view of one process: identity,
// scheduler state, and the memory/time statistics Jobsnap reports
// (paper §5.1). Values are synthetic but deterministic, derived from the
// process identity and the virtual clock, so repeated runs produce
// identical output and tests can assert on it.
type Snapshot struct {
	Pid     int
	Exe     string
	State   string
	PC      uint64 // program counter
	Threads int

	VmHWMKB int64 // virtual memory high water mark
	VmLckKB int64 // locked memory
	VmRSSKB int64 // resident set

	UtimeMS  int64 // user CPU time
	StimeMS  int64 // system CPU time
	MajFault int64 // major page faults
}

// snapshotReadCost is the per-process cost of collecting a /proc snapshot
// (several small file reads), charged to the caller of Snapshot.
const snapshotReadCost = 150 * time.Microsecond

// Snapshot collects the process's /proc view, charging snapshotReadCost of
// virtual time to the calling simulated goroutine.
func (p *Proc) Snapshot() Snapshot {
	p.node.cl.sim.Sleep(snapshotReadCost)
	now := p.node.cl.sim.Now()
	alive := now - p.started
	if alive < 0 {
		alive = 0
	}
	p.node.mu.Lock()
	defer p.node.mu.Unlock()

	// Deterministic pseudo-metrics: keyed by pid and elapsed time. A task
	// spends ~70% user, ~5% system of its wall time in this model.
	seed := uint64(p.pid)*2654435761 + uint64(len(p.exe))
	return Snapshot{
		Pid:      int(p.pid),
		Exe:      p.exe,
		State:    p.state.String(),
		PC:       0x400000 + (seed^uint64(alive/time.Millisecond))%0x10000,
		Threads:  1 + int(seed%4),
		VmHWMKB:  int64(20000 + seed%8192),
		VmLckKB:  int64(seed % 64),
		VmRSSKB:  int64(16000 + seed%4096),
		UtimeMS:  int64(float64(alive/time.Millisecond) * 0.7),
		StimeMS:  int64(float64(alive/time.Millisecond) * 0.05),
		MajFault: int64(seed % 17),
	}
}
