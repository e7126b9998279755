// Package slurm implements the rm.Manager contract as a SLURM-like
// resource manager on a simulated cluster: a controller process on the
// front-end node, one node daemon (slurmd) per compute node, and an
// srun-like job launcher that exposes the MPIR APAI symbols and raises
// MPIR_Breakpoint once the job is launched.
//
// Job launch and tool daemon spawning both travel down a k-ary tree of
// slurmd daemons computed over the launch node list, with per-node forks
// happening in parallel across nodes — the scalable native launch fabric
// the paper's LaunchMON delegates to. Cost constants default to values
// calibrated against the paper's Atlas measurements (Figure 3, which
// `lmonbench -fig 3` regenerates).
package slurm

import (
	"fmt"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/hostlist"
	"launchmon/internal/lmonp"
	"launchmon/internal/rm"
	"launchmon/internal/simnet"
)

// Well-known ports of the RM services.
const (
	CtrlPort   = 6817
	SlurmdPort = 6818
)

// Config tunes the RM's behaviour and cost model. Zero fields default.
type Config struct {
	// Name names the installation: its allocation service runs as Name +
	// "ctld" (default "slurm").
	Name string
	// Fanout of the slurmd launch tree (default 32).
	Fanout int
	// DebugEvents is the number of tracer stops the launcher raises before
	// MPIR_Breakpoint; scale-independent, per the SLURM fix the paper
	// describes (default 11, for 12 total stops including the breakpoint).
	DebugEvents int
	// PerTaskRootCost is srun's per-task bookkeeping (stdio wiring, task
	// records); the dominant linear term of T(job) (default 500us,
	// calibrated to the paper's Atlas measurements).
	PerTaskRootCost time.Duration
	// PerNodeSpawnRootCost is srun's per-node ack processing when spawning
	// tool daemons; the linear term of T(daemon) (default 1.8ms).
	PerNodeSpawnRootCost time.Duration
	// PerMsgCost is slurmd's request handling CPU cost (default 120us).
	PerMsgCost time.Duration
	// AllocBase/AllocPerNode are the controller's allocation costs
	// (defaults 2ms / 20us).
	AllocBase    time.Duration
	AllocPerNode time.Duration
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "slurm"
	}
	if c.Fanout == 0 {
		c.Fanout = 32
	}
	if c.DebugEvents == 0 {
		c.DebugEvents = 11
	}
	if c.PerTaskRootCost == 0 {
		c.PerTaskRootCost = 500 * time.Microsecond
	}
	if c.PerNodeSpawnRootCost == 0 {
		c.PerNodeSpawnRootCost = 1800 * time.Microsecond
	}
	if c.PerMsgCost == 0 {
		c.PerMsgCost = 120 * time.Microsecond
	}
	if c.AllocBase == 0 {
		c.AllocBase = 2 * time.Millisecond
	}
	if c.AllocPerNode == 0 {
		c.AllocPerNode = 20 * time.Microsecond
	}
	return c
}

// Manager is the SLURM-like rm.Manager: the shared skeleton (registry, job
// handle, srun, slurmctld) over the slurmd tree fabric.
type Manager struct {
	*rm.Skeleton
	cfg Config
}

var _ rm.Manager = (*Manager)(nil)

// Install boots the RM onto the cluster: controller on the front end,
// slurmd on every compute node. Call before running the simulation.
func Install(cl *cluster.Cluster, cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	sk, err := rm.Install(cl, rm.Profile{
		Launcher: "srun",
		LauncherArgs: func(spec rm.JobSpec) []string {
			return []string{fmt.Sprintf("-N%d", spec.Nodes), fmt.Sprintf("--ntasks-per-node=%d", spec.TasksPerNode), spec.Exe}
		},
		Allocator:            cfg.Name + "ctld",
		AllocPort:            CtrlPort,
		DebugEvents:          cfg.DebugEvents,
		AllocBase:            cfg.AllocBase,
		AllocPerNode:         cfg.AllocPerNode,
		PerTaskRootCost:      cfg.PerTaskRootCost,
		PerNodeSpawnRootCost: cfg.PerNodeSpawnRootCost,
	}, tree{})
	if err != nil {
		return nil, err
	}
	m := &Manager{Skeleton: sk, cfg: cfg}
	for i := 0; i < cl.NumNodes(); i++ {
		node := cl.Node(i)
		d := &slurmd{m: m, node: node}
		if _, err := node.SpawnSystemProc(cluster.Spec{
			Exe: cfg.Name + "d", Main: d.main, Resident: true,
		}); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// tree is the rm.Fabric of the slurmd launch tree: one request to the
// root slurmd of the node list, which forwards it down the k-ary tree and
// answers with the merged result (slurmd.go).
type tree struct{}

// treeRequest sends a raw request to the root slurmd of nodelist and
// returns the reply payload.
func treeRequest(h *simnet.Host, nodelist []string, raw []byte) (*lmonp.Reader, error) {
	return rm.Call(h, simnet.Addr{Host: nodelist[0], Port: SlurmdPort}, raw)
}

func (tree) Launch(p *cluster.Proc, id int, spec rm.JobSpec, nodes []string) ([]byte, error) {
	rd, err := treeRequest(p.Host(), nodes, encodeLaunch(id, spec.TasksPerNode, spec.Exe, nodes))
	if err != nil {
		return nil, err
	}
	return rd.Bytes(), rd.Err()
}

func (tree) Spawn(p *cluster.Proc, id int, nodes []string, spec rm.DaemonSpec) error {
	rd, err := treeRequest(p.Host(), nodes, encodeSpawn(id, spec, nodes))
	if err != nil {
		return err
	}
	count := rd.Uint32()
	if err := rd.Err(); err != nil {
		return err
	}
	if int(count) != len(nodes) {
		return fmt.Errorf("slurm: spawned %d daemons on %d nodes", count, len(nodes))
	}
	return nil
}

func (tree) Kill(from *simnet.Host, id int, nodes []string) error {
	_, err := treeRequest(from, nodes, encodeKill(id, nodes))
	return err
}

// joinNodes and splitNodes carry node lists on the wire and in the
// daemon environment in SLURM's compressed hostlist form
// ("node[0-99999]"): at 10^6 nodes a comma-joined list is ~7 MB per
// message and per environment, a compressed run is a few bytes.
// splitNodes returns a shared interned slice — callers must not mutate.
func joinNodes(nodes []string) string { return hostlist.Compress(nodes) }
func splitNodes(s string) []string    { return hostlist.Expand(s) }
