package oss

import (
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/core"
	"launchmon/internal/dpcl"
	"launchmon/internal/rm"
	"launchmon/internal/rm/slurm"
	"launchmon/internal/vtime"
)

func measure(t *testing.T, nodes int, which string) Result {
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
	svc, err := dpcl.Install(cl)
	if err != nil {
		t.Fatal(err)
	}
	core.Setup(cl, mgr)
	Install(cl)
	var inst Instrumentor
	if which == "dpcl" {
		inst = &DPCLInstrumentor{Svc: svc}
	} else {
		inst = &LaunchMONInstrumentor{}
	}
	var res Result
	var runErr error
	sim.Go("boot", func() {
		cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "oss_fe", Main: func(p *cluster.Proc) {
			j, err := mgr.StartJob(rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: 8})
			if err != nil {
				runErr = err
				return
			}
			p.Sim().Sleep(3 * time.Second)
			res, runErr = inst.AcquireAPAI(p, j)
		}})
	})
	sim.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return res
}

func TestBothPathsReturnSameProctab(t *testing.T) {
	d := measure(t, 4, "dpcl")
	l := measure(t, 4, "launchmon")
	if len(d.Proctab) != 32 || len(l.Proctab) != 32 {
		t.Fatalf("proctab sizes: dpcl=%d launchmon=%d, want 32", len(d.Proctab), len(l.Proctab))
	}
	if err := d.Proctab.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Proctab.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDPCLDominatedByBinaryParse(t *testing.T) {
	res := measure(t, 2, "dpcl")
	if res.Elapsed < 33*time.Second || res.Elapsed > 36*time.Second {
		t.Fatalf("DPCL APAI access = %v, want ~34s", res.Elapsed)
	}
}

func TestLaunchMONSubSecond(t *testing.T) {
	res := measure(t, 2, "launchmon")
	if res.Elapsed < 400*time.Millisecond || res.Elapsed > 900*time.Millisecond {
		t.Fatalf("LaunchMON APAI access = %v, want ~0.6s", res.Elapsed)
	}
}

func TestBothRoughlyConstantAcrossScale(t *testing.T) {
	d2 := measure(t, 2, "dpcl").Elapsed
	d32 := measure(t, 32, "dpcl").Elapsed
	if d32 < d2 {
		t.Fatalf("DPCL time decreased with scale: %v -> %v", d2, d32)
	}
	if float64(d32) > 1.1*float64(d2) {
		t.Fatalf("DPCL time not ~constant: %v -> %v", d2, d32)
	}
	l2 := measure(t, 2, "launchmon").Elapsed
	l32 := measure(t, 32, "launchmon").Elapsed
	if float64(l32) > 1.4*float64(l2) {
		t.Fatalf("LaunchMON time not ~constant: %v -> %v", l2, l32)
	}
	// The headline: order(s) of magnitude apart at every scale.
	if d2 < 20*l2 || d32 < 20*l32 {
		t.Fatalf("DPCL/LaunchMON gap too small: %v vs %v, %v vs %v", d2, l2, d32, l32)
	}
}
