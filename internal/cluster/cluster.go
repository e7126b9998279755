// Package cluster simulates an HPC cluster: a front-end node plus compute
// nodes, each with a process table, fork/exec cost model and per-process
// synthetic /proc metrics. Processes are virtual-time goroutines
// (internal/vtime) that reach the simulated network (internal/simnet)
// through their node's host.
//
// The package also provides the debugger-style tracing interface that the
// Automatic Process Acquisition Interface (APAI) of the resource manager
// builds on: a tracer attaches to a process, observes stop events (for
// example the MPIR_Breakpoint), reads named symbols from the process
// "address space" (charged by size) and resumes it — exactly the contract
// the LaunchMON Engine consumes.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// Options configure cluster construction.
type Options struct {
	// Nodes is the number of compute nodes (required, > 0).
	Nodes int
	// Net configures fault injection on the interconnect.
	Net simnet.Options
	// MaxProcs caps the per-node process table; Spawn fails beyond it
	// (models fork: Resource temporarily unavailable). Zero means 8192.
	MaxProcs int
}

// The process cost model: ForkCost is the CPU time to fork+exec one
// process (forks on one node serialize); a tracer's symbol read costs
// symbolReadBase of ptrace overhead plus its size at symbolReadBandwidth
// bytes/second (ptrace peeks are slow).
const (
	ForkCost            = 900 * time.Microsecond
	symbolReadBase      = 50 * time.Microsecond
	symbolReadBandwidth = 40e6
)

const (
	defaultMaxProcs   = 8192
	frontEndName      = "fe0"
	computeNamePrefix = "node"
)

func (o Options) withDefaults() Options {
	if o.MaxProcs == 0 {
		o.MaxProcs = defaultMaxProcs
	}
	return o
}

// ProcMain is the entry point of a simulated process.
type ProcMain func(p *Proc)

// Cluster is a simulated machine: one front-end node plus compute nodes.
type Cluster struct {
	sim  *vtime.Sim
	net  *simnet.Network
	opts Options

	frontEnd *Node
	nodes    []*Node

	mu       sync.Mutex
	registry map[string]ProcMain
}

// New builds a cluster with opts.Nodes compute nodes named node0..nodeN-1
// and a front-end node named fe0.
func New(sim *vtime.Sim, opts Options) (*Cluster, error) {
	if opts.Nodes <= 0 {
		return nil, errors.New("cluster: Nodes must be positive")
	}
	o := opts.withDefaults()
	c := &Cluster{
		sim:      sim,
		net:      simnet.New(sim, o.Net),
		opts:     o,
		registry: make(map[string]ProcMain),
	}
	c.frontEnd = c.newNode(frontEndName)
	for i := 0; i < o.Nodes; i++ {
		c.nodes = append(c.nodes, c.newNode(fmt.Sprintf("%s%d", computeNamePrefix, i)))
	}
	return c, nil
}

func (c *Cluster) newNode(name string) *Node {
	return &Node{
		cl:    c,
		name:  name,
		host:  c.net.Host(name),
		procs: make([]*Proc, 0, 8), // a daemon node's whole table, allocated at boot
		pid:   100,
	}
}

// Sim returns the underlying virtual-time simulation.
func (c *Cluster) Sim() *vtime.Sim { return c.sim }

// Net returns the simulated network.
func (c *Cluster) Net() *simnet.Network { return c.net }

// FrontEnd returns the front-end (login/service) node.
func (c *Cluster) FrontEnd() *Node { return c.frontEnd }

// NumNodes returns the number of compute nodes.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Node returns compute node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// NodeByName resolves a node (front end or compute) by host name.
func (c *Cluster) NodeByName(name string) (*Node, bool) {
	if name == frontEndName {
		return c.frontEnd, true
	}
	for _, n := range c.nodes {
		if n.name == name {
			return n, true
		}
	}
	return nil, false
}

// Register binds an "executable" name to a process entry point; Spawn specs
// may then reference the executable by name, mirroring exec of an installed
// binary on every node.
func (c *Cluster) Register(exe string, main ProcMain) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.registry[exe] = main
}

func (c *Cluster) lookup(exe string) (ProcMain, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.registry[exe]
	return m, ok
}

// Node is one simulated machine in the cluster.
type Node struct {
	cl   *Cluster
	name string
	host *simnet.Host

	mu sync.Mutex
	// procs is the process table in pid order (pids only grow, so a spawn
	// appends). An exited process stays as its own tombstone until half the
	// entries are dead, so an exit costs O(1) amortized.
	procs   []*Proc
	dead    int // exited entries in procs
	pid     int
	cpuFree time.Duration // fork serialization point
	down    bool          // node killed by Fail/KillNode
}

// Name returns the node's host name.
func (n *Node) Name() string { return n.name }

// Host returns the node's network endpoint.
func (n *Node) Host() *simnet.Host { return n.host }

// NumProcs returns the current process count on the node.
func (n *Node) NumProcs() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.procs) - n.dead
}

// Proc looks up a live process by pid.
func (n *Node) Proc(pid int) (*Proc, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	i := sort.Search(len(n.procs), func(i int) bool { return int(n.procs[i].pid) >= pid })
	if i == len(n.procs) || int(n.procs[i].pid) != pid || n.procs[i].state == StateExited {
		return nil, false
	}
	return n.procs[i], true
}

// FindProcByExe returns the live process with the named executable and
// the lowest pid (nil when none runs) — how tests and tools locate a
// system process, e.g. the LaunchMON engine, for fault injection.
func (n *Node) FindProcByExe(exe string) *Proc {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, p := range n.procs {
		if p.exe == exe && p.state != StateExited {
			return p
		}
	}
	return nil
}

// reapLocked counts one more exited process and, once the dead are half the
// table, drops them, keeping pid order: a node whose job has ended keeps no
// tombstone. Caller holds n.mu.
func (n *Node) reapLocked() {
	if n.dead++; 2*n.dead < len(n.procs) {
		return
	}
	live := n.procs[:0]
	for _, p := range n.procs {
		if p.state != StateExited {
			live = append(live, p)
		}
	}
	clear(n.procs[len(live):])
	n.procs, n.dead = live, 0
}

// ErrProcLimit is returned by Spawn when the node's process table is full
// (the simulated analogue of fork failing with EAGAIN).
var ErrProcLimit = errors.New("cluster: fork: resource temporarily unavailable")

// errNodeDown is returned by Spawn on a killed node.
var errNodeDown = errors.New("cluster: node is down")

// Fail kills the node: its network host is severed (peers observe
// ErrPeerDead once in-flight data drains) and every process on it is
// force-terminated, lowest pid first. Further spawns fail with errNodeDown.
// This is the fault-injection entry point for node-loss scenarios; it is
// idempotent.
func (n *Node) Fail() {
	n.mu.Lock()
	if n.down {
		n.mu.Unlock()
		return
	}
	n.down = true
	// The table's pid order: which process dies first decides which of its
	// connections' peers hears first. Kill reaps, so walk a copy.
	procs := append([]*Proc(nil), n.procs...)
	n.mu.Unlock()

	// Sever the interconnect first so no process "escapes" a final message
	// after the instant of failure, then reap the process table.
	n.cl.net.KillHost(n.name)
	for _, p := range procs {
		p.Kill()
	}
}

// KillNode fail-stops compute node i (injection API). See Node.Fail.
func (c *Cluster) KillNode(i int) { c.nodes[i].Fail() }

// KillNodeByName fail-stops the named node (front end or compute);
// it reports whether the node existed.
func (c *Cluster) KillNodeByName(name string) bool {
	n, ok := c.NodeByName(name)
	if !ok {
		return false
	}
	n.Fail()
	return true
}

// Spec describes a process to spawn.
type Spec struct {
	// Exe names a registered executable when Main is nil; with Main set
	// (or Passive) it is only a label.
	Exe string
	// Main is a direct entry point; when set it takes precedence over the
	// executable registry. Processes with neither Main nor a registered
	// Exe behaviour are passive: they occupy a table slot and expose
	// metrics but run no code (how simulated MPI tasks are represented).
	Main ProcMain
	// Passive marks a process with no behaviour; Exe is then a pure label
	// (the application name reported in proctables and /proc).
	Passive bool
	// Hold prevents the entry point from running until Proc.Start is
	// called, so a debugger can attach first (launch mode of the engine).
	Hold bool
	// Resident marks a process that stays alive after its entry point
	// returns: Main sets up event handlers (listener callbacks, timers)
	// and returns, but the process keeps its table slot until Exit/Kill —
	// the shape of an event-driven system daemon. Without Resident, Main
	// returning implies Exit(0).
	Resident bool
	Args     []string
	// Env is the process's own environment, over EnvBase. As with execve,
	// a key holds no '=' or NUL and a value no NUL, or the spawn fails.
	Env map[string]string
	// EnvBase is a shared immutable environment layer under Env: the
	// process keeps the map pointer itself (no copy), so spawners that
	// start many processes with a common environment — an RM daemon
	// spawning one tool daemon per node — pay for one map, not K. Entries
	// in Env shadow EnvBase; callers must never mutate EnvBase afterwards.
	EnvBase map[string]string
}

// SpawnProc forks a process on the node, charging the fork cost to the
// calling simulated goroutine (forks on a node serialize). It is the only
// way processes come into existence; remote placement happens through
// daemons (RM or rsh) that call SpawnProc on their own node.
func (n *Node) SpawnProc(spec Spec) (*Proc, error) {
	n.cl.sim.Sleep(n.reserveFork())
	return n.spawn(spec)
}

// SpawnSystemProc creates a process without charging the fork cost. It is
// for machine boot (RM node daemons, persistent system services) and may
// be called from outside the simulation, before Run; the process's main
// runs in its turn once Run starts (vtime.Sim.Go).
func (n *Node) SpawnSystemProc(spec Spec) (*Proc, error) {
	return n.spawn(spec)
}

// Forked is told how an asynchronous fork ended.
type Forked interface{ Forked(p *Proc, err error) }

// Fork is an asynchronous fork as the scheduler event it is (vtime:
// events are objects). Its caller owns it and may start it again once it
// has reported to To, so a caller that forks in sequence — slurmd starting
// a node's tasks one after the other — allocates one for all of them.
type Fork struct {
	Spec Spec
	To   Forked
	node *Node
}

// Fire spawns the process at the instant its fork window ends.
func (f *Fork) Fire() { f.To.Forked(f.node.spawn(f.Spec)) }

// SpawnProcEvent is SpawnProc for callers that must not block (event
// handlers running on the scheduler): the node's fork window is reserved
// immediately — so concurrent forks serialize exactly as with SpawnProc —
// and f fires at the instant the fork completes, spawning the process and
// reporting it to f.To at that same instant.
func (n *Node) SpawnProcEvent(f *Fork) {
	f.node = n
	n.cl.sim.AfterEvent(n.reserveFork(), f)
}

func (n *Node) spawn(spec Spec) (*Proc, error) {
	main := spec.Main
	if main == nil && spec.Exe != "" && !spec.Passive {
		m, ok := n.cl.lookup(spec.Exe)
		if !ok {
			return nil, fmt.Errorf("cluster: exec %q: no such executable", spec.Exe)
		}
		main = m
	}
	env, err := envBlock(spec.Env)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	if n.down {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", errNodeDown, n.name)
	}
	if len(n.procs)-n.dead >= n.cl.opts.MaxProcs {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w (node %s, %d procs)", ErrProcLimit, n.name, n.cl.opts.MaxProcs)
	}
	n.pid++
	var p *Proc
	// A passive task, or a resident daemon that only sets up handlers (an RM
	// node daemon), may never use its cold part: its whole cost, bar its
	// table slot, is the Proc.
	if (main == nil || spec.Resident && !spec.Hold) && len(spec.Args) == 0 && len(spec.Env) == 0 && len(spec.EnvBase) == 0 {
		p = new(Proc)
	} else {
		pc := &procWithCold{cold: procCold{
			args:    append([]string(nil), spec.Args...),
			env:     env,
			envBase: spec.EnvBase,
		}}
		if spec.Hold {
			pc.cold.heldMain = main
		}
		p = &pc.Proc
		p.cold, p.spec = &pc.cold, true
	}
	p.node, p.pid, p.exe, p.started, p.resident = n, int32(n.pid), spec.Exe, n.cl.sim.Now(), spec.Resident
	if spec.Exe == "" && spec.Main == nil {
		p.exe = "task"
	}
	n.procs = append(n.procs, p)
	n.mu.Unlock()

	if main != nil && !spec.Hold {
		p.run(main)
	}
	return p, nil
}

func (p *Proc) run(main ProcMain) {
	p.node.cl.sim.Go(p, func() {
		main(p)
		if !p.resident {
			p.exit(0, false)
		}
	})
}

// Start releases a process spawned with Spec.Hold. It is a no-op for
// running or passive processes.
func (p *Proc) Start() {
	var main ProcMain
	p.node.mu.Lock()
	if p.cold != nil {
		main, p.cold.heldMain = p.cold.heldMain, nil
	}
	p.node.mu.Unlock()
	if main != nil {
		p.run(main)
	}
}

// reserveFork books the node's next fork window — forks on a node
// serialize — and returns how long from now until that fork completes.
func (n *Node) reserveFork() time.Duration {
	now := n.cl.sim.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cpuFree < now {
		n.cpuFree = now
	}
	n.cpuFree += ForkCost
	return n.cpuFree - now
}
