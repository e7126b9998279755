// Package alps implements a Cray ALPS/YOD-like resource manager: a
// structurally different launch architecture from the SLURM-like tree
// (internal/rm/slurm), used to demonstrate the paper's portability claim
// — the LaunchMON engine and APIs run unchanged across resource managers
// because they only consume the rm.Manager contract.
//
// Architecture: an apsched allocation service on the front end, a
// lightweight apinit daemon on every compute node, and an aprun-like
// launcher. Unlike the slurmd k-ary tree, aprun drives a *star*: it
// submits the launch to each node's apinit directly from the service
// node, pipelined (submissions overlap with remote forks), and gathers
// acknowledgements asynchronously. Placement is by NID (node id) rather
// than hostname lists, matching ALPS conventions.
package alps

import (
	"fmt"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/hostlist"
	"launchmon/internal/rm"
)

// Service ports.
const (
	apschedPort = 601 // allocation service on the front end
	ApinitPort  = 602 // per-node launch daemon
)

// The RM's cost model.
const (
	// debugEvents raised by aprun before MPIR_Breakpoint
	// (scale-independent, like fixed SLURM).
	debugEvents = 14
	// perNodeSubmit is aprun's serial cost to submit one node's launch
	// (the star's linear term).
	perNodeSubmit = 350 * time.Microsecond
	// perTaskRootCost is aprun's per-task bookkeeping.
	perTaskRootCost = 550 * time.Microsecond
	// apinitPerMsg is apinit's request-handling cost.
	apinitPerMsg = 150 * time.Microsecond
	// allocBase is apsched's allocation cost.
	allocBase = 4 * time.Millisecond
)

// Manager is the ALPS-like rm.Manager: the shared skeleton (registry, job
// handle, aprun, apsched) over the apinit star fabric.
type Manager struct{ *rm.Skeleton }

var _ rm.Manager = (*Manager)(nil)

// Install boots apsched on the front end and apinit on every compute node.
func Install(cl *cluster.Cluster) (*Manager, error) {
	sk, err := rm.Install(cl, rm.Profile{
		Launcher: "aprun",
		LauncherArgs: func(spec rm.JobSpec) []string {
			return []string{fmt.Sprintf("-n%d", spec.Tasks()), fmt.Sprintf("-N%d", spec.TasksPerNode), spec.Exe}
		},
		Allocator:       "apsched",
		AllocPort:       apschedPort,
		DebugEvents:     debugEvents,
		AllocBase:       allocBase,
		PerTaskRootCost: perTaskRootCost,
		// No per-node terms: apsched's claim is one lookup, and aprun pays
		// for a spawn at submission (perNodeSubmit, in the star fabric).
	}, star{sim: cl.Sim()})
	if err != nil {
		return nil, err
	}
	for i := 0; i < cl.NumNodes(); i++ {
		node := cl.Node(i)
		a := &apinit{node: node, jobProcs: make(map[int][]*cluster.Proc)}
		if _, err := node.SpawnSystemProc(cluster.Spec{Exe: "apinit", Main: a.main}); err != nil {
			return nil, err
		}
	}
	return &Manager{sk}, nil
}

// joinNIDs carries the placement node list in compressed hostlist form
// (ALPS NID lists are naturally dense ranges, "nid[0-9999]"), keeping
// the apinit spawn environment O(1) in job scale.
func joinNIDs(nodes []string) string { return hostlist.Compress(nodes) }
