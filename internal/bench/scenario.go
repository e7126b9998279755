// Package bench regenerates every table and figure of the paper's
// evaluation: Figure 3 (launchAndSpawn model vs measured), Figure 5
// (Jobsnap performance), Figure 6 (STAT start-up: MRNet-rsh vs LaunchMON)
// and Table 1 (O|SS APAI access times), plus the ablation studies listed
// in DESIGN.md. Every data point is one Scenario run on a fresh simulated
// cluster, so rows are independent and deterministic; the Experiments
// table lists what cmd/lmonbench and the root benchmarks run.
package bench

import (
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/core"
	"launchmon/internal/dpcl"
	"launchmon/internal/rm"
	"launchmon/internal/rm/slurm"
	"launchmon/internal/rsh"
	"launchmon/internal/simnet"
	"launchmon/internal/tools/jobsnap"
	"launchmon/internal/tools/oss"
	"launchmon/internal/tools/stat"
	"launchmon/internal/vtime"
)

// Scenario is one data point: the cluster to boot, the session to launch
// on it, the daemons that session runs, and the front-end body that takes
// the measurement.
type Scenario struct {
	Nodes    int
	MaxProcs int // front-end process table size (0 = default)
	// Lean boots the RM and LaunchMON only, without the per-node system
	// services the launch path does not need (sshd, dpcld) and without the
	// tool registrations. The full rig spawns two parked system processes
	// per node, which dominates host memory at the million-node scale of
	// launchMillion; Run.Rsh and Run.Dpc are nil on a lean rig.
	Lean bool
	// Install replaces the SLURM-like RM (configured by Slurm) with another
	// resource manager.
	Install func(cl *cluster.Cluster) (rm.Manager, error)
	Slurm   slurm.Config
	// Boot adds system services the scenario needs present before the
	// simulation starts.
	Boot func(cl *cluster.Cluster) error

	// Opts is the session to launch before FE runs; a scenario whose
	// Opts.Daemon.Exe is empty launches nothing and FE sees a nil Run.Sess.
	// Daemon exe names are spelled out per scenario because they ride in
	// every spawn request's bytes, which the pinned numbers include.
	Opts core.Options
	// BE is the body of Opts.Daemon.Exe after BEInit; nil is a daemon that
	// finalizes at once, like a tool that only needs the session up.
	BE func(p *cluster.Proc, be *core.BackEnd)
	// MW is the body of the middleware daemon MWExe after MWInit.
	MWExe string
	MW    func(p *cluster.Proc, mw *core.Middleware)
	// FE runs as the tool front-end process once the session is up.
	FE func(r *Run) error
}

// Run is a scenario in progress, as its FE body sees it, and what is left
// of it afterwards.
type Run struct {
	Sim *vtime.Sim
	Cl  *cluster.Cluster
	Mgr rm.Manager
	Rsh *rsh.Service
	Dpc *dpcl.Service

	P     *cluster.Proc
	Sess  *core.Session
	Ready time.Duration // LaunchAndSpawn call → return (e0→e11)
}

// boot builds the scenario's cluster and registers its daemons.
func (sc Scenario) boot() (*Run, error) {
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: sc.Nodes, MaxProcs: sc.MaxProcs})
	if err != nil {
		return nil, err
	}
	r := &Run{Sim: sim, Cl: cl}
	if sc.Install != nil {
		r.Mgr, err = sc.Install(cl)
	} else {
		r.Mgr, err = slurm.Install(cl, sc.Slurm)
	}
	if err != nil {
		return nil, err
	}
	if !sc.Lean {
		if r.Rsh, err = rsh.Install(cl); err != nil {
			return nil, err
		}
		if r.Dpc, err = dpcl.Install(cl); err != nil {
			return nil, err
		}
	}
	core.Setup(cl, r.Mgr)
	if !sc.Lean {
		jobsnap.Install(cl)
		stat.Install(cl)
		oss.Install(cl)
	}
	if exe := sc.Opts.Daemon.Exe; exe != "" {
		cl.Register(exe, beMain(sc.BE))
	}
	if sc.MWExe != "" {
		cl.Register(sc.MWExe, func(p *cluster.Proc) {
			if mw, err := core.MWInit(p); err == nil {
				sc.MW(p, mw)
			}
		})
	}
	if sc.Boot != nil {
		if err := sc.Boot(cl); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// beMain is the main of a back-end daemon that runs body once it has
// joined its session; a nil body finalizes at once.
func beMain(body func(p *cluster.Proc, be *core.BackEnd)) func(p *cluster.Proc) {
	return func(p *cluster.Proc) {
		be, err := core.BEInit(p)
		if err != nil {
			return
		}
		if body == nil {
			be.Finalize()
			return
		}
		body(p, be)
	}
}

// Run boots the scenario, launches its session from a front-end process,
// runs FE and drives the simulation to completion. The returned Run is
// non-nil whenever the cluster booted, so post-run readings (Sim.PeakLive)
// are available beside FE's error. The front end is the only simulated
// goroutine the runner adds: launch_million pins the goroutine peak.
func (sc Scenario) Run() (*Run, error) {
	r, err := sc.boot()
	if err != nil {
		return nil, err
	}
	r.Sim.Go("bench-fe-boot", func() {
		if _, serr := r.Cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "bench_fe", Main: func(p *cluster.Proc) {
			r.P = p
			if sc.Opts.Daemon.Exe != "" {
				t0 := r.Sim.Now()
				if r.Sess, err = core.LaunchAndSpawn(p, sc.Opts); err != nil {
					return
				}
				r.Ready = r.Sim.Now() - t0
			}
			if sc.FE != nil {
				err = sc.FE(r)
			}
		}}); serr != nil {
			err = serr
		}
	})
	r.Sim.Run()
	return r, err
}

// timed runs fn and returns the virtual time it took and the network
// traffic it caused.
func (r *Run) timed(fn func() error) (time.Duration, simnet.Stats, error) {
	t0, before := r.Sim.Now(), r.Cl.Net().Stats()
	err := fn()
	after := r.Cl.Net().Stats()
	return r.Sim.Now() - t0, simnet.Stats{
		Messages: after.Messages - before.Messages,
		Bytes:    after.Bytes - before.Bytes,
		Dials:    after.Dials - before.Dials,
	}, err
}

// startJob starts an application job through the RM and lets it run for
// settle, the state an attach-mode tool finds.
func (r *Run) startJob(exe string, nodes, tasksPerNode int, settle time.Duration) (rm.Job, error) {
	j, err := r.Mgr.StartJob(rm.JobSpec{Exe: exe, Nodes: nodes, TasksPerNode: tasksPerNode})
	if err != nil {
		return nil, err
	}
	r.Sim.Sleep(settle)
	return j, nil
}
