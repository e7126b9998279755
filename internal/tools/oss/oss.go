// Package oss reproduces the Open|SpeedShop case study (paper §5.3): a
// parallel performance toolset whose Instrumentor component acquires the
// APAI information (the proctable) before experiments can start.
//
// Two Instrumentor implementations are provided, matching the paper's
// Table 1 comparison:
//
//   - DPCLInstrumentor — the original path: the persistent DPCL daemon
//     attaches to the RM launcher, parses its binary in full, then reads
//     the proctable, plus a per-node session setup (≈34 s, roughly flat
//     from 2 to 32 nodes); and
//   - LaunchMONInstrumentor — attachAndSpawn acquires the RPDTAB through
//     the engine and starts the (augmented) daemons directly, after which
//     O|SS's own runtime initializes (≈0.6 s, flat).
package oss

import (
	"fmt"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/core"
	"launchmon/internal/dpcl"
	"launchmon/internal/lmonp"
	"launchmon/internal/proctab"
	"launchmon/internal/rm"
)

// beExe is the registered executable of the LaunchMON-started O|SS daemon.
const beExe = "ossd"

// daemonInitCost models the O|SS daemon runtime bootstrap (DPCL runtime
// library init inside the daemon), paid in parallel across nodes.
const daemonInitCost = 450 * time.Millisecond

// Install registers the O|SS daemon executable.
func Install(cl *cluster.Cluster) {
	cl.Register(beExe, func(p *cluster.Proc) {
		be, err := core.BEInit(p)
		if err != nil {
			return
		}
		p.Compute(daemonInitCost)
		// Every daemon signals readiness through a sum-reduction on the
		// collective plane: the front end's Reduce completes only when the
		// whole tree has bootstrapped its DPCL runtime — a stronger
		// guarantee than the old master-only "oss-daemons-ready" message —
		// then the daemons wait for work (none in the benchmark scenario).
		if err := be.Collective().Reduce(lmonp.AppendUint64(nil, 1), "sum"); err != nil {
			return
		}
		be.Finalize()
	})
}

// Result reports one APAI acquisition measurement.
type Result struct {
	Proctab proctab.Table
	Elapsed time.Duration
}

// Instrumentor acquires APAI information for a running job.
type Instrumentor interface {
	// AcquireAPAI returns the job's proctable and the elapsed virtual time
	// between experiment initiation and APAI availability.
	AcquireAPAI(p *cluster.Proc, job rm.Job) (Result, error)
}

// DPCLInstrumentor is the original O|SS path over persistent daemons.
type DPCLInstrumentor struct {
	Svc *dpcl.Service
}

// AcquireAPAI implements Instrumentor: full binary parse of the RM
// launcher, proctable read, then per-node daemon sessions.
func (d *DPCLInstrumentor) AcquireAPAI(p *cluster.Proc, job rm.Job) (Result, error) {
	start := p.Sim().Now()
	launcher := job.LauncherProc()
	enc, err := d.Svc.APAIViaDPCL(p, launcher.Node().Name(), launcher.Pid())
	if err != nil {
		return Result{}, fmt.Errorf("oss/dpcl: %w", err)
	}
	tab, err := proctab.Decode(enc)
	if err != nil {
		return Result{}, err
	}
	// Widen the experiment: one session per application node, serial at
	// the O|SS front end.
	for _, host := range tab.Hosts() {
		if err := d.Svc.OpenNodeSession(p, host); err != nil {
			return Result{}, err
		}
	}
	return Result{Proctab: tab, Elapsed: p.Sim().Now() - start}, nil
}

// LaunchMONInstrumentor replaces O|SS's central Instrumentor class with
// LaunchMON (the paper's integration): attachAndSpawn acquires the RPDTAB
// and starts the augmented DPCL daemons directly.
type LaunchMONInstrumentor struct{}

// AcquireAPAI implements Instrumentor via attachAndSpawn.
func (l *LaunchMONInstrumentor) AcquireAPAI(p *cluster.Proc, job rm.Job) (Result, error) {
	start := p.Sim().Now()
	sess, err := core.AttachAndSpawn(p, core.Options{
		JobID:  job.ID(),
		Daemon: rm.DaemonSpec{Exe: beExe},
	})
	if err != nil {
		return Result{}, fmt.Errorf("oss/launchmon: %w", err)
	}
	// The daemons bootstrap their DPCL runtime and report readiness
	// through the tree-combined sum; every daemon must check in.
	ready, err := sess.Reduce()
	if err != nil {
		return Result{}, err
	}
	rd := lmonp.NewReader(ready)
	count := rd.Uint64()
	if err := rd.Err(); err != nil {
		return Result{}, fmt.Errorf("oss/launchmon: readiness sum: %w", err)
	}
	if count != uint64(len(sess.Daemons())) {
		return Result{}, fmt.Errorf("oss/launchmon: %d of %d daemons ready", count, len(sess.Daemons()))
	}
	return Result{Proctab: sess.Proctab(), Elapsed: p.Sim().Now() - start}, nil
}
