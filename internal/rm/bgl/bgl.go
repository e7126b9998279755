// Package bgl provides a BlueGene/L-like resource manager: the same
// launch-tree contract as the SLURM-like manager, but with the cost
// profile the paper reports for BG/L's mpirun — substantially higher
// T(job) and T(daemon) (per-task and per-node launcher costs), a single
// dedicated service-node launch path, and a higher per-request cost on
// the I/O-node side.
//
// The paper (§4) found LaunchMON's own overheads on BG/L similar to
// Atlas, with the RM's job/daemon spawn times significantly higher; this
// manager reproduces that contrast in the BG/L ablation benchmark.
package bgl

import (
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/rm"
	"launchmon/internal/rm/slurm"
)

// Install boots the BG/L-like mpirun RM onto the cluster.
func Install(cl *cluster.Cluster) (rm.Manager, error) {
	return slurm.Install(cl, config())
}

// config returns the BG/L mpirun cost profile: ~5x the per-task launcher
// cost and ~4x the per-node daemon spawn cost of the SLURM profile, plus a
// shallower (flat) service-node fan-out.
func config() slurm.Config {
	return slurm.Config{
		Name:                 "bgl-mpirun",
		Fanout:               8,
		DebugEvents:          12,
		PerTaskRootCost:      2500 * time.Microsecond,
		PerNodeSpawnRootCost: 7200 * time.Microsecond,
		PerMsgCost:           300 * time.Microsecond,
		AllocBase:            15 * time.Millisecond,
		AllocPerNode:         60 * time.Microsecond,
	}
}
