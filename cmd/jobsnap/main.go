// Command jobsnap runs the Jobsnap tool (paper §5.1) against a freshly
// started MPI job on a simulated cluster and prints the per-task report:
// rank, host, executable, pid, state, program counter, thread count,
// memory statistics and CPU times — one line per task. The tool attaches
// by job id and detaches when done, leaving the job running: the workflow
// the paper's introduction motivates for production triage.
//
// Usage:
//
//	jobsnap [-nodes N] [-tasks-per-node T]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/core"
	"launchmon/internal/rm"
	"launchmon/internal/rm/slurm"
	"launchmon/internal/tools/jobsnap"
	"launchmon/internal/vtime"
)

func main() {
	nodes := flag.Int("nodes", 16, "compute nodes the target job uses")
	tpn := flag.Int("tasks-per-node", 8, "MPI tasks per node")
	flag.Parse()

	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: *nodes})
	if err != nil {
		fatal(err)
	}
	mgr, err := slurm.Install(cl, slurm.Config{})
	if err != nil {
		fatal(err)
	}
	core.Setup(cl, mgr)
	jobsnap.Install(cl)

	var res jobsnap.Result
	var runErr error
	alive := 0
	sim.Go("boot", func() {
		if _, err := cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "jobsnap", Main: func(p *cluster.Proc) {
			j, err := mgr.StartJob(rm.JobSpec{Exe: "mpiapp", Nodes: *nodes, TasksPerNode: *tpn})
			if err != nil {
				runErr = err
				return
			}
			p.Sim().Sleep(10 * time.Second) // let the job run before snapshotting
			res, runErr = jobsnap.Run(p, j.ID())
			// The job is untouched: once the detached daemons have had a
			// moment to exit, only its tasks (and slurmd) are left.
			p.Sim().Sleep(time.Second)
			for i := 0; i < *nodes; i++ {
				alive += cl.Node(i).NumProcs() - 1
			}
		}}); err != nil {
			runErr = err
		}
	})
	sim.Run()
	if runErr != nil {
		fatal(runErr)
	}
	fmt.Print(res.Report)
	fmt.Printf("\njobsnap: %d tasks on %d nodes; total %.3fs (launchmon %.3fs); %d tasks still alive after detach\n",
		res.Lines, *nodes, res.Total.Seconds(), res.LaunchTime.Seconds(), alive)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jobsnap:", err)
	os.Exit(1)
}
