package bgl

import (
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/rm"
	"launchmon/internal/rm/slurm"
	"launchmon/internal/vtime"
)

func TestInstallAndLaunch(t *testing.T) {
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := Install(cl)
	if err != nil {
		t.Fatal(err)
	}
	var tab int
	sim.Go("test", func() {
		j, err := mgr.StartJob(rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 2})
		if err != nil {
			t.Error(err)
			return
		}
		sim.Sleep(30 * time.Second)
		tab = len(j.(interface{ Nodes() []string }).Nodes())
	})
	sim.Run()
	if tab != 4 {
		t.Fatalf("job spans %d nodes", tab)
	}
}

func TestCostProfileAboveSLURM(t *testing.T) {
	launchTime := func(install func(cl *cluster.Cluster) (rm.Manager, error)) time.Duration {
		sim := vtime.New()
		cl, err := cluster.New(sim, cluster.Options{Nodes: 16})
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := install(cl)
		if err != nil {
			t.Fatal(err)
		}
		var dur time.Duration
		sim.Go("test", func() {
			j, err := mgr.StartJobHeld(rm.JobSpec{Exe: "app", Nodes: 16, TasksPerNode: 8})
			if err != nil {
				t.Error(err)
				return
			}
			tr, err := j.LauncherProc().Attach()
			if err != nil {
				t.Error(err)
				return
			}
			j.Start()
			start := sim.Now()
			for {
				ev, ok := tr.Events().Recv()
				if !ok || ev.Type == cluster.EventExit {
					return
				}
				if ev.Reason == rm.BPName {
					dur = sim.Now() - start
					tr.Detach()
					return
				}
				tr.Continue()
			}
		})
		sim.Run()
		return dur
	}
	bglTime := launchTime(Install)
	slurmTime := launchTime(func(cl *cluster.Cluster) (rm.Manager, error) {
		return slurm.Install(cl, slurm.Config{})
	})
	if bglTime == 0 || slurmTime == 0 {
		t.Fatal("launches did not complete")
	}
	// The paper found BG/L's T(job) significantly higher.
	if bglTime < 3*slurmTime {
		t.Fatalf("BG/L launch %v not clearly above SLURM %v", bglTime, slurmTime)
	}
}

func TestDebugEventCountMatchesSLURMContract(t *testing.T) {
	sim := vtime.New()
	cl, _ := cluster.New(sim, cluster.Options{Nodes: 1})
	mgr, err := Install(cl)
	if err != nil {
		t.Fatal(err)
	}
	small := mgr.DebugEventCount(rm.JobSpec{Nodes: 1, TasksPerNode: 1})
	big := mgr.DebugEventCount(rm.JobSpec{Nodes: 1024, TasksPerNode: 8})
	if small != big {
		t.Fatalf("BG/L debug events scale: %d vs %d", small, big)
	}
}
