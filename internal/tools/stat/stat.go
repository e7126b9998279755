// Package stat reproduces the Stack Trace Analysis Tool case study
// (paper §5.2): lightweight daemons sample stack traces from every task of
// a parallel job, merge them into a call-graph prefix tree over an
// MRNet-like TBŌN (internal/tbon), and report process equivalence classes.
//
// Two start-up paths match Figure 6:
//
//   - MRNet-native: the front end launches the stack-sampling daemons
//     itself through rsh, sequentially — slow, and failing outright at
//     512 nodes when the front end can no longer fork; and
//   - LaunchMON: attach/launchAndSpawn places the daemons through the RM,
//     and the MRNet connection information (the parent address that was
//     previously passed via command lines or a shared file) is broadcast
//     to the daemons as piggybacked tool data.
package stat

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/core"
	"launchmon/internal/rm"
	"launchmon/internal/rsh"
	"launchmon/internal/tbon"
)

// Registered executable names.
const (
	beExe       = "stat_be"     // LaunchMON-launched daemon (TBŌN overlay)
	nativeBEExe = "stat_be_rsh" // rsh-launched daemon (native MRNet path)
	filterName  = "stat-merge"  // prefix-tree merge of the TBŌN's replies
)

// sampleCost is the daemon-side cost of walking one task's stack.
const sampleCost = 400 * time.Microsecond

// daemonInitCost models the stack-sampling daemon's startup (loading the
// stackwalker runtime, attaching to local tasks), paid in parallel across
// nodes before the daemon joins the overlay.
const daemonInitCost = 300 * time.Millisecond

// Install registers STAT's daemons.
func Install(cl *cluster.Cluster) {
	cl.Register(beExe, func(p *cluster.Proc) { beMainLaunchMON(p) })
	cl.Register(nativeBEExe, func(p *cluster.Proc) { beMainNative(p) })
}

// mergeFilter merges two encoded prefix trees.
func mergeFilter(a, b []byte) []byte {
	if a == nil {
		return b
	}
	ta, errA := decodeTree(a)
	tb, errB := decodeTree(b)
	if errA != nil || errB != nil {
		return a
	}
	ta.merge(tb)
	return ta.encode()
}

// stackFor synthesizes the call stack of a task: a deterministic profile
// with a handful of behaviour classes (the shape STAT's intro motivates —
// most tasks wait in MPI while a few diverge).
func stackFor(rank int) []string {
	base := []string{"main", "solver_loop"}
	switch {
	case rank%17 == 3:
		return append(base, "io_checkpoint", "write_block", "posix_write")
	case rank%5 == 1:
		return append(base, "compute_kernel", "dgemm_inner")
	default:
		return append(base, "exchange_halo", "mpi_waitall", "poll_cq")
	}
}

// sampleLocal walks the stack of each of the daemon's tasks and returns
// their encoded prefix tree: one daemon's contribution to a sample wave.
func sampleLocal(p *cluster.Proc, ranks []int) []byte {
	local := newTree()
	for _, r := range ranks {
		p.Compute(sampleCost)
		local.addStack(r, stackFor(r))
	}
	return local.encode()
}

// localRanks returns the ranks of the tasks a LaunchMON-launched daemon
// watches.
func localRanks(be *core.BackEnd) []int {
	ranks := make([]int, 0, len(be.MyProctab()))
	for _, d := range be.MyProctab() {
		ranks = append(ranks, d.Rank)
	}
	return ranks
}

// serveSampling answers TBŌN sample requests for the given local ranks.
func serveSampling(p *cluster.Proc, leaf *tbon.Leaf, ranks []int) {
	for {
		pkt, err := leaf.Recv()
		if err != nil {
			return
		}
		pkt.Data = sampleLocal(p, ranks)
		if err := leaf.Send(pkt); err != nil {
			return
		}
	}
}

// beMainLaunchMON is the LaunchMON-launched STAT daemon: BEInit supplies
// the local tasks and the piggybacked MRNet parent address.
func beMainLaunchMON(p *cluster.Proc) {
	be, err := core.BEInit(p)
	if err != nil {
		return
	}
	p.Compute(daemonInitCost)
	parentAddr := string(be.FEData())
	leaf, err := tbon.ConnectLeaf(p, parentAddr, be.Rank())
	if err != nil {
		return
	}
	defer leaf.Close()
	serveSampling(p, leaf, localRanks(be))
}

// beMainNative is the rsh-launched daemon: everything arrives through the
// environment (the old mechanism the paper replaces), including the task
// ranks via STAT_RANKS.
func beMainNative(p *cluster.Proc) {
	rank, err := strconv.Atoi(p.Env(tbon.EnvRank))
	if err != nil {
		return
	}
	p.Compute(daemonInitCost)
	leaf, err := tbon.ConnectLeaf(p, p.Env(tbon.EnvParent), rank)
	if err != nil {
		return
	}
	defer leaf.Close()
	var ranks []int
	for _, s := range strings.Split(p.Env("STAT_RANKS"), ",") {
		if r, err := strconv.Atoi(s); err == nil {
			ranks = append(ranks, r)
		}
	}
	serveSampling(p, leaf, ranks)
}

// Instance is a running STAT session.
type Instance struct {
	fe   *tbon.FrontEnd
	sess *core.Session // nil in native mode

	// StartupTime is the launch+connect duration (Figure 6's metric).
	StartupTime time.Duration
}

// LaunchWithLaunchMON attaches STAT to a running job via LaunchMON,
// broadcasting the TBŌN parent address as piggybacked tool data, and waits
// for all daemons to connect (1-deep topology).
func LaunchWithLaunchMON(p *cluster.Proc, jobID int) (*Instance, error) {
	start := p.Sim().Now()
	fe, err := tbon.NewFrontEnd(p)
	if err != nil {
		return nil, err
	}
	sess, err := core.AttachAndSpawn(p, core.Options{
		JobID:  jobID,
		Daemon: rm.DaemonSpec{Exe: beExe},
		FEData: []byte(fe.Addr()),
	})
	if err != nil {
		fe.Close()
		return nil, fmt.Errorf("stat: %w", err)
	}
	n := len(sess.Daemons())
	if err := fe.AcceptChildren(n); err != nil {
		fe.Close()
		return nil, err
	}
	return &Instance{fe: fe, sess: sess, StartupTime: p.Sim().Now() - start}, nil
}

// LaunchWithRsh starts STAT the pre-LaunchMON way: sequential rsh daemon
// launch with per-node configuration passed through the environment. tab
// maps node names to their task ranks (previously a shared file or long
// command lines).
func LaunchWithRsh(p *cluster.Proc, svc *rsh.Service, nodes []string, ranksPerNode map[string][]int) (*Instance, error) {
	start := p.Sim().Now()
	fe, err := tbon.LaunchNativeFlat(p, svc, nodes, nativeBEExe, func(_ int, node string) map[string]string {
		csv := make([]string, len(ranksPerNode[node]))
		for j, r := range ranksPerNode[node] {
			csv[j] = strconv.Itoa(r)
		}
		return map[string]string{"STAT_RANKS": strings.Join(csv, ",")}
	})
	if err != nil {
		return nil, fmt.Errorf("stat: native launch: %w", err)
	}
	return &Instance{fe: fe, StartupTime: p.Sim().Now() - start}, nil
}

// Sample performs one stack-sample wave over the TBŌN and returns the
// merged call-graph prefix tree.
func (in *Instance) Sample() (*Tree, error) {
	raw, err := in.fe.Request(tbon.Packet{Stream: 1, Tag: 1, Filter: filterName}, mergeFilter)
	if err != nil {
		return nil, err
	}
	return decodeTree(raw)
}

// Close shuts the session down (daemons observe EOF and exit).
func (in *Instance) Close() {
	in.fe.Close()
	if in.sess != nil {
		in.sess.Detach()
	}
}
