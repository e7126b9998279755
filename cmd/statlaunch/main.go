// Command statlaunch runs the STAT start-up comparison (paper §5.2) at
// one scale: it starts an MPI job on a simulated cluster, launches STAT's
// stack-sampling daemons first through LaunchMON and then through the
// ad hoc rsh path, reports both start-up times, and prints the process
// equivalence classes from one sampling wave — the handful of
// representative tasks a full debugger would then attach to.
//
// Usage:
//
//	statlaunch [-nodes N] [-tasks-per-node T] [-skip-rsh]
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
	"launchmon/internal/rsh"
	"launchmon/internal/tools/stat"
	"launchmon/internal/vtime"
)

func main() {
	nodes := flag.Int("nodes", 64, "compute nodes the target job uses")
	tpn := flag.Int("tasks-per-node", 8, "MPI tasks per node")
	skipRsh := flag.Bool("skip-rsh", false, "skip the slow rsh baseline")
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
	svc, err := rsh.Install(cl)
	if err != nil {
		fatal(err)
	}
	core.Setup(cl, mgr)
	stat.Install(cl)

	var runErr error
	sim.Go("boot", func() {
		if _, err := cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "stat", Main: func(p *cluster.Proc) {
			j, err := mgr.StartJob(rm.JobSpec{Exe: "mpiapp", Nodes: *nodes, TasksPerNode: *tpn})
			if err != nil {
				runErr = err
				return
			}
			p.Sim().Sleep(10 * time.Second)

			inst, err := stat.LaunchWithLaunchMON(p, j.ID())
			if err != nil {
				runErr = err
				return
			}
			fmt.Printf("LaunchMON launch+connect: %8.3fs (%d daemons)\n",
				inst.StartupTime.Seconds(), *nodes)
			tree, err := inst.Sample()
			if err != nil {
				runErr = err
				return
			}
			fmt.Printf("\nstack sample: %d tasks, %d equivalence classes\n",
				tree.Tasks(), len(tree.EquivalenceClasses()))
			for _, c := range tree.EquivalenceClasses() {
				fmt.Println(" ", c)
			}
			inst.Close()

			if *skipRsh {
				return
			}
			tab, err := rm.ReadProctab(j.LauncherProc())
			if err != nil {
				fmt.Printf("\nreading the job's proctable: %v\n", err)
				return
			}
			ranks := map[string][]int{}
			for _, d := range tab {
				ranks[d.Host] = append(ranks[d.Host], d.Rank)
			}
			nat, err := stat.LaunchWithRsh(p, svc, tab.Hosts(), ranks)
			if err != nil {
				fmt.Printf("\nMRNet(rsh) launch FAILED: %v\n", err)
				return
			}
			fmt.Printf("\nMRNet(rsh) launch+connect: %8.3fs (%.1fx slower)\n",
				nat.StartupTime.Seconds(),
				float64(nat.StartupTime)/float64(inst.StartupTime))
			nat.Close()
		}}); err != nil {
			runErr = err
		}
	})
	sim.Run()
	if runErr != nil {
		fatal(runErr)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "statlaunch:", err)
	os.Exit(1)
}
