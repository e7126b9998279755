package cluster

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// State is the lifecycle state of a simulated process.
type State int

// Process lifecycle states.
const (
	stateRunning State = iota
	stateStopped       // stopped by the tracer (debug stop)
	StateExited
)

// String renders the state like /proc status letters.
func (s State) String() string {
	switch s {
	case stateRunning:
		return "R"
	case stateStopped:
		return "T"
	case StateExited:
		return "Z"
	default:
		return "?"
	}
}

// Symbol is a named value in a process's simulated address space, with an
// explicit serialized size so tracer reads can be charged realistically.
type Symbol struct {
	Value any
	Size  int // bytes a debugger would transfer to read it
}

// Proc is a simulated process. It holds what every process uses, a passive
// MPI task included, in one 64 B size class; the rest is a procCold behind
// one pointer (DESIGN.md "Simulator cost model").
type Proc struct {
	node    *Node
	exe     string
	started time.Duration
	// cold is made at spawn for a process that has args or env, is held,
	// or runs code and is not resident (spec is then true), otherwise on
	// first use under node.mu.
	cold        *procCold
	state       State // guarded by node.mu
	exitCode    int   // guarded by node.mu
	pid         int32
	resident    bool // Main returning does not imply exit (Spec.Resident)
	spec        bool
	inDebugStop bool // blocked inside DebugEvent awaiting Continue; guarded by node.mu
}

// procCold is the part of a process that most processes never touch.
// Everything after envBase is guarded by node.mu.
type procCold struct {
	args []string
	// env is the per-process overlay (Spec.Env), which wins over envBase,
	// as one environment block: "key=value\x00" entries in key order. A
	// daemon's overlay is an entry or two, which a map would hold in over
	// ten times the bytes for as long as the process lives.
	env     string
	envBase map[string]string // shared immutable base (Spec.EnvBase), never copied

	symbols  map[string]Symbol // lazy: nil until the first SetSymbol
	tracer   *Tracer
	heldMain ProcMain              // entry point pending Start (Spec.Hold)
	exited   *vtime.Chan[int]      // closed-with-value on exit; created by the first Wait
	resume   *vtime.Chan[struct{}] // tracer Continue tokens; created by DebugEvent

	// conns are network connections adopted via AdoptConn; Exit severs
	// them so a killed process's peers observe ErrPeerDead rather than
	// hanging on a conn whose owner no longer runs.
	conns []adopted
}

// adopted is what a process holds for its life (AdoptConn): a connection,
// or a tracer, that its death severs.
type adopted interface{ Sever() }

// procWithCold is a process spawned with its cold part: one allocation.
type procWithCold struct {
	Proc
	cold procCold
}

// coldLocked returns the cold part, making it on first use. Caller holds
// node.mu.
func (p *Proc) coldLocked() *procCold {
	if p.cold == nil {
		p.cold = new(procCold)
	}
	return p.cold
}

// Pid returns the process id (unique per node).
func (p *Proc) Pid() int { return int(p.pid) }

// Exe returns the executable name.
func (p *Proc) Exe() string { return p.exe }

// String names the process, node/exe[pid], as its goroutine is named.
func (p *Proc) String() string { return fmt.Sprintf("%s/%s[%d]", p.node.name, p.exe, p.pid) }

// args returns the argument vector.
func (p *Proc) args() []string { return p.spawned().args }

// spawned returns the cold part made at spawn, or an empty one. Its args and
// env never change, so reading them takes no lock.
func (p *Proc) spawned() *procCold {
	if p.spec {
		return p.cold
	}
	return &noCold
}

var noCold procCold // what a process spawned without args or env reads

// Node returns the node the process runs on.
func (p *Proc) Node() *Node { return p.node }

// Host returns the node's network endpoint, the process's window onto the
// interconnect.
func (p *Proc) Host() *simnet.Host { return p.node.host }

// Sim returns the simulation clock driver.
func (p *Proc) Sim() *vtime.Sim { return p.node.cl.sim }

// Env returns the value of an environment variable ("" when unset).
func (p *Proc) Env(key string) string {
	c := p.spawned()
	for block := c.env; block != ""; {
		var k, v string
		k, v, block = nextEnv(block)
		if k == key {
			return v
		}
	}
	return c.envBase[key]
}

// Environ returns a copy of the whole environment.
func (p *Proc) Environ() map[string]string {
	c := p.spawned()
	out := make(map[string]string, len(c.envBase)+strings.Count(c.env, "\x00"))
	for k, v := range c.envBase {
		out[k] = v
	}
	for block := c.env; block != ""; {
		var k, v string
		k, v, block = nextEnv(block)
		out[k] = v
	}
	return out
}

// nextEnv splits the first entry off a non-empty environment block.
func nextEnv(block string) (key, value, rest string) {
	entry, rest, _ := strings.Cut(block, "\x00")
	key, value, _ = strings.Cut(entry, "=")
	return key, value, rest
}

// envBlock renders a process's overlay as its environment block, one
// allocation of exactly its size. Like execve, it refuses a key that holds
// '=' or NUL and a value that holds NUL: the block could not say where
// such an entry ends.
func envBlock(env map[string]string) (string, error) {
	if len(env) == 0 {
		return "", nil
	}
	var small [8]string
	keys, n := small[:0], 0
	for k, v := range env {
		if strings.ContainsAny(k, "=\x00") || strings.IndexByte(v, 0) >= 0 {
			return "", fmt.Errorf("cluster: exec: bad environment entry %q", k)
		}
		keys = append(keys, k)
		n += len(k) + len(v) + 2
	}
	slices.Sort(keys)
	var b strings.Builder
	b.Grow(n)
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(env[k])
		b.WriteByte(0)
	}
	return b.String(), nil
}

// State returns the current lifecycle state.
func (p *Proc) State() State {
	p.node.mu.Lock()
	defer p.node.mu.Unlock()
	return p.state
}

// Compute charges d of CPU time to the process (uncontended; Atlas nodes
// are 8-core, and tool daemons are lightweight).
func (p *Proc) Compute(d time.Duration) { p.node.cl.sim.Sleep(d) }

// Spawn forks a child process on the same node.
func (p *Proc) Spawn(spec Spec) (*Proc, error) {
	return p.node.SpawnProc(spec)
}

// AdoptConn hands a network connection to the process for lifecycle
// management: when the process is killed, the connection is severed so
// remote peers observe ErrPeerDead — the same signal a node loss produces —
// instead of blocking forever on a conn nobody reads. A process that exits
// on its own closes what it means to close. Long-lived components (the
// engine and its tracer, a daemon's tree links, a master daemon's FE
// connection) adopt theirs as they get them. Adopting on an already-exited
// process severs immediately.
func (p *Proc) AdoptConn(c adopted) {
	n := p.node
	n.mu.Lock()
	if p.state == StateExited {
		n.mu.Unlock()
		c.Sever()
		return
	}
	cold := p.coldLocked()
	cold.conns = append(cold.conns, c)
	n.mu.Unlock()
}

// Kill force-terminates the process with exit code 137 (SIGKILL-like).
// Adopted connections (AdoptConn) are severed: the process's protocol peers
// see the loss as ErrPeerDead, which is what drives failure detection for
// killed-process (vs killed-node) faults.
func (p *Proc) Kill() { p.exit(137, true) }

func (p *Proc) exit(code int, killed bool) {
	n := p.node
	n.mu.Lock()
	if p.state == StateExited {
		n.mu.Unlock()
		return
	}
	p.state = StateExited
	p.exitCode = code
	n.reapLocked()
	var c procCold // a process that never needed its cold part has nothing below
	if p.cold != nil {
		c = *p.cold
		p.cold.tracer, p.cold.conns = nil, nil
	}
	n.mu.Unlock()
	if killed {
		for _, conn := range c.conns {
			conn.Sever()
		}
	}
	if c.tracer != nil {
		c.tracer.events.Send(TraceEvent{Type: EventExit, Code: code})
		c.tracer.events.Close()
	}
	if c.exited != nil {
		c.exited.Send(code)
		c.exited.Close()
	}
	if c.resume != nil {
		c.resume.Close()
	}
}

// Wait blocks until the process exits and returns its exit code; ok is
// false when the simulation tore down first.
func (p *Proc) Wait() (code int, ok bool) {
	n := p.node
	n.mu.Lock()
	if p.state == StateExited {
		code := p.exitCode
		n.mu.Unlock()
		return code, true
	}
	cold := p.coldLocked()
	if cold.exited == nil {
		cold.exited = vtime.NewChan[int](n.cl.sim)
	}
	ch := cold.exited
	n.mu.Unlock()
	return ch.Recv()
}

// SetSymbol publishes (or updates) a named symbol in the process's address
// space for tracers to read.
func (p *Proc) SetSymbol(name string, sym Symbol) {
	p.node.mu.Lock()
	defer p.node.mu.Unlock()
	cold := p.coldLocked()
	if cold.symbols == nil {
		cold.symbols = make(map[string]Symbol)
	}
	cold.symbols[name] = sym
}

// --- Tracing (the substrate under the RM's APAI) ---

// TraceEventType enumerates tracer observations.
type TraceEventType int

// Trace event kinds.
const (
	// EventStop: the tracee stopped (breakpoint or debug event); the reason
	// names it, e.g. "MPIR_Breakpoint". Continue resumes it.
	EventStop TraceEventType = iota
	// EventExit: the tracee exited; Code holds the exit status.
	EventExit
)

// TraceEvent is one observation delivered to the tracer.
type TraceEvent struct {
	Type   TraceEventType
	Reason string
	Code   int
}

// Tracer is a debugger attachment to one process. Its methods use the
// tracee's cold part with no nil check: Attach made it.
type Tracer struct {
	proc   *Proc
	events *vtime.Chan[TraceEvent]
}

// Errors from the tracing interface.
var (
	errAlreadyTraced = errors.New("cluster: process already traced")
	ErrNotStopped    = errors.New("cluster: tracee is not stopped")
	ErrExited        = errors.New("cluster: process has exited")
)

// Attach attaches a debugger to the process. Only one tracer may be
// attached at a time.
func (p *Proc) Attach() (*Tracer, error) {
	n := p.node
	n.mu.Lock()
	defer n.mu.Unlock()
	if p.state == StateExited {
		return nil, ErrExited
	}
	cold := p.coldLocked()
	if cold.tracer != nil {
		return nil, errAlreadyTraced
	}
	t := &Tracer{proc: p, events: vtime.NewChan[TraceEvent](n.cl.sim)}
	cold.tracer = t
	return t, nil
}

// Events returns the tracer's event stream. The channel closes when the
// tracee exits or the tracer detaches.
func (t *Tracer) Events() *vtime.Chan[TraceEvent] { return t.events }

// ReadSymbol reads a named symbol from the tracee's address space, charging
// the caller ptrace-style cost proportional to the symbol's size.
func (t *Tracer) ReadSymbol(name string) (any, error) {
	p := t.proc
	n := p.node
	n.mu.Lock()
	sym, ok := p.cold.symbols[name]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("cluster: symbol %q not found in %s[%d]", name, p.exe, p.pid)
	}
	cost := symbolReadBase + time.Duration(float64(sym.Size)/symbolReadBandwidth*float64(time.Second))
	n.cl.sim.Sleep(cost)
	return sym.Value, nil
}

// Continue resumes a debug-stopped tracee.
func (t *Tracer) Continue() error {
	p := t.proc
	n := p.node
	n.mu.Lock()
	if p.state == StateExited {
		n.mu.Unlock()
		return ErrExited
	}
	if p.state != stateStopped {
		n.mu.Unlock()
		return ErrNotStopped
	}
	p.state = stateRunning
	blocked := p.inDebugStop
	resume := p.cold.resume
	n.mu.Unlock()
	if blocked {
		resume.Send(struct{}{})
	}
	return nil
}

// Interrupt stops a running tracee without a debug event of its own (the
// SIGSTOP a debugger sends when attaching to an already running launcher).
// The tracer receives an EventStop with reason "interrupt".
func (t *Tracer) Interrupt() error {
	p := t.proc
	n := p.node
	n.mu.Lock()
	if p.state == StateExited {
		n.mu.Unlock()
		return ErrExited
	}
	if p.state == stateStopped {
		n.mu.Unlock()
		return nil
	}
	p.state = stateStopped
	n.mu.Unlock()
	t.events.Send(TraceEvent{Type: EventStop, Reason: "interrupt"})
	return nil
}

// Detach removes the tracer; a stopped tracee is resumed first. Detaching
// again, or from a tracee that has exited, does nothing.
func (t *Tracer) Detach() {
	p := t.proc
	n := p.node
	n.mu.Lock()
	if p.cold.tracer != t {
		n.mu.Unlock()
		return
	}
	stopped := p.state == stateStopped
	blocked := p.inDebugStop
	resume := p.cold.resume
	p.cold.tracer = nil
	if stopped {
		p.state = stateRunning
	}
	n.mu.Unlock()
	if stopped && blocked {
		resume.Send(struct{}{})
	}
	t.events.Close()
}

// Sever detaches the tracer as its process dies: a killed debugger
// releases its tracee, as ptrace does (Proc.AdoptConn).
func (t *Tracer) Sever() { t.Detach() }

// DebugEvent raises a debugger stop with the given reason if the process is
// traced: the process blocks until the tracer calls Continue. Untraced
// processes proceed immediately. This is how the RM launcher surfaces both
// its ordinary debug events and the MPIR_Breakpoint.
func (p *Proc) DebugEvent(reason string) {
	n := p.node
	n.mu.Lock()
	cold := p.cold // an untraced process may have none
	if cold == nil || cold.tracer == nil || p.state == StateExited {
		n.mu.Unlock()
		return
	}
	t := cold.tracer
	p.state = stateStopped
	p.inDebugStop = true
	if cold.resume == nil {
		cold.resume = vtime.NewChan[struct{}](n.cl.sim)
	}
	resume := cold.resume
	n.mu.Unlock()
	t.events.Send(TraceEvent{Type: EventStop, Reason: reason})
	resume.Recv() // parked until Continue/Detach (or teardown)
	n.mu.Lock()
	p.inDebugStop = false
	n.mu.Unlock()
}
