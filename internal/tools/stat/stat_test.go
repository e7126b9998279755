package stat

import (
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/core"
	"launchmon/internal/proctab"
	"launchmon/internal/rm"
	"launchmon/internal/rm/slurm"
	"launchmon/internal/rsh"
	"launchmon/internal/vtime"
)

func rig(t *testing.T, nodes int) (*vtime.Sim, *cluster.Cluster, rm.Manager, *rsh.Service) {
	t.Helper()
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := slurm.Install(cl, slurm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := rsh.Install(cl)
	if err != nil {
		t.Fatal(err)
	}
	core.Setup(cl, mgr)
	Install(cl)
	return sim, cl, mgr, svc
}

func TestLaunchMONModeSamplesAllTasks(t *testing.T) {
	sim, cl, mgr, _ := rig(t, 8)
	var classes []Class
	var tasks int
	sim.Go("boot", func() {
		cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "stat_fe", Main: func(p *cluster.Proc) {
			j, err := mgr.StartJob(rm.JobSpec{Exe: "app", Nodes: 8, TasksPerNode: 4})
			if err != nil {
				t.Error(err)
				return
			}
			p.Sim().Sleep(2 * time.Second)
			inst, err := LaunchWithLaunchMON(p, j.ID())
			if err != nil {
				t.Error(err)
				return
			}
			defer inst.Close()
			tree, err := inst.Sample()
			if err != nil {
				t.Error(err)
				return
			}
			tasks = tree.Tasks()
			classes = tree.EquivalenceClasses()
		}})
	})
	sim.Run()
	if tasks != 32 {
		t.Fatalf("sampled %d tasks, want 32", tasks)
	}
	if len(classes) != 3 {
		t.Fatalf("got %d equivalence classes, want 3", len(classes))
	}
	covered := 0
	for _, c := range classes {
		covered += len(c.Ranks)
	}
	if covered != 32 {
		t.Fatalf("classes cover %d ranks", covered)
	}
}

func TestNativeModeEquivalentResult(t *testing.T) {
	sim, cl, mgr, svc := rig(t, 4)
	var lmTasks, rshTasks int
	sim.Go("boot", func() {
		cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "stat_fe", Main: func(p *cluster.Proc) {
			j, err := mgr.StartJob(rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 2})
			if err != nil {
				t.Error(err)
				return
			}
			p.Sim().Sleep(2 * time.Second)

			// LaunchMON path.
			lm, err := LaunchWithLaunchMON(p, j.ID())
			if err != nil {
				t.Error(err)
				return
			}
			tree, err := lm.Sample()
			if err != nil {
				t.Error(err)
				return
			}
			lmTasks = tree.Tasks()
			lm.Close()

			// Native path needs the task map (the old shared-file
			// mechanism); derive it from the RM's proctable.
			tab := jobTable(t, j)
			ranks := map[string][]int{}
			for _, d := range tab {
				ranks[d.Host] = append(ranks[d.Host], d.Rank)
			}
			nodes := tab.Hosts()
			nat, err := LaunchWithRsh(p, svc, nodes, ranks)
			if err != nil {
				t.Error(err)
				return
			}
			defer nat.Close()
			tree2, err := nat.Sample()
			if err != nil {
				t.Error(err)
				return
			}
			rshTasks = tree2.Tasks()
		}})
	})
	sim.Run()
	if lmTasks != 8 || rshTasks != 8 {
		t.Fatalf("tasks: launchmon=%d rsh=%d, want 8/8", lmTasks, rshTasks)
	}
}

// jobTable reads a running job's RPDTAB off its launcher.
func jobTable(t *testing.T, j rm.Job) proctab.Table {
	t.Helper()
	tab, err := rm.ReadProctab(j.LauncherProc())
	if err != nil {
		t.Error(err)
	}
	return tab
}

func TestLaunchMONFasterThanRshAtScale(t *testing.T) {
	sim, cl, mgr, svc := rig(t, 32)
	var lmTime, rshTime time.Duration
	sim.Go("boot", func() {
		cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "stat_fe", Main: func(p *cluster.Proc) {
			j, err := mgr.StartJob(rm.JobSpec{Exe: "app", Nodes: 32, TasksPerNode: 8})
			if err != nil {
				t.Error(err)
				return
			}
			p.Sim().Sleep(3 * time.Second)

			lm, err := LaunchWithLaunchMON(p, j.ID())
			if err != nil {
				t.Error(err)
				return
			}
			lmTime = lm.StartupTime
			lm.Close()

			tab := jobTable(t, j)
			ranks := map[string][]int{}
			for _, d := range tab {
				ranks[d.Host] = append(ranks[d.Host], d.Rank)
			}
			nat, err := LaunchWithRsh(p, svc, tab.Hosts(), ranks)
			if err != nil {
				t.Error(err)
				return
			}
			rshTime = nat.StartupTime
			nat.Close()
		}})
	})
	sim.Run()
	if lmTime == 0 || rshTime == 0 {
		t.Fatal("startup did not complete")
	}
	if rshTime < 3*lmTime {
		t.Fatalf("rsh startup %v not clearly slower than LaunchMON %v at 32 nodes", rshTime, lmTime)
	}
}

func TestRshModeFailsAtFrontEndLimit(t *testing.T) {
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: 48, MaxProcs: 24})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := rsh.Install(cl)
	if err != nil {
		t.Fatal(err)
	}
	Install(cl)
	var launchErr error
	sim.Go("boot", func() {
		cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "stat_fe", Main: func(p *cluster.Proc) {
			nodes := make([]string, 48)
			ranks := map[string][]int{}
			for i := range nodes {
				nodes[i] = cl.Node(i).Name()
				ranks[nodes[i]] = []int{i}
			}
			_, launchErr = LaunchWithRsh(p, svc, nodes, ranks)
		}})
	})
	sim.Run()
	if launchErr == nil {
		t.Fatal("rsh STAT startup beyond the front-end process limit succeeded")
	}
}
