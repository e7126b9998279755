package dpcl

import (
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/proctab"
	"launchmon/internal/rm"
	"launchmon/internal/vtime"
)

func rig(t *testing.T, nodes int) (*vtime.Sim, *cluster.Cluster, *Service) {
	t.Helper()
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Install(cl)
	if err != nil {
		t.Fatal(err)
	}
	return sim, cl, svc
}

func TestAPAIViaDPCLReadsProctab(t *testing.T) {
	sim, cl, svc := rig(t, 2)
	want := proctab.Table{{Host: "node0", Exe: "app", Pid: 7, Rank: 0}}
	sim.Go("test", func() {
		// A fake launcher exposing the MPIR symbols.
		launcher, err := cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "srun", Passive: true})
		if err != nil {
			t.Error(err)
			return
		}
		rm.PublishProctab(launcher, want)
		client, _ := cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "oss", Main: func(p *cluster.Proc) {
			got, err := svc.APAIViaDPCL(p, "fe0", launcher.Pid())
			if err != nil {
				t.Error(err)
				return
			}
			tab, err := proctab.Decode(got)
			if err != nil {
				t.Error(err)
				return
			}
			if len(tab) != 1 || tab[0].Host != "node0" {
				t.Errorf("tab = %+v", tab)
			}
		}})
		client.Wait()
	})
	sim.Run()
}

func TestAPAICostDominatedByParse(t *testing.T) {
	parse := binaryParseCost
	sim, cl, svc := rig(t, 1)
	var cost time.Duration
	sim.Go("test", func() {
		launcher, _ := cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "srun", Passive: true})
		rm.PublishProctab(launcher, proctab.Table{{Host: "node0", Exe: "a", Pid: 1, Rank: 0}})
		client, _ := cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "oss", Main: func(p *cluster.Proc) {
			start := p.Sim().Now()
			if _, err := svc.APAIViaDPCL(p, "fe0", launcher.Pid()); err != nil {
				t.Error(err)
				return
			}
			cost = p.Sim().Now() - start
		}})
		client.Wait()
	})
	sim.Run()
	if cost < parse {
		t.Fatalf("APAI access %v below the binary parse cost %v", cost, parse)
	}
	if cost > parse+300*time.Millisecond {
		t.Fatalf("APAI access %v far above parse cost %v", cost, parse)
	}
}

func TestAPAIMissingProcess(t *testing.T) {
	sim, cl, svc := rig(t, 1)
	sim.Go("test", func() {
		client, _ := cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "oss", Main: func(p *cluster.Proc) {
			if _, err := svc.APAIViaDPCL(p, "fe0", 424242); err == nil {
				t.Error("APAI against missing pid succeeded")
			}
		}})
		client.Wait()
	})
	sim.Run()
}

func TestAPAIUnknownHost(t *testing.T) {
	sim, cl, svc := rig(t, 1)
	sim.Go("test", func() {
		client, _ := cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "oss", Main: func(p *cluster.Proc) {
			if _, err := svc.APAIViaDPCL(p, "ghost-node", 1); err == nil {
				t.Error("APAI against unknown host succeeded")
			}
		}})
		client.Wait()
	})
	sim.Run()
}

func TestNodeSessionsCharged(t *testing.T) {
	per := perNodeSessionCost
	sim, cl, svc := rig(t, 4)
	var cost time.Duration
	sim.Go("test", func() {
		client, _ := cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "oss", Main: func(p *cluster.Proc) {
			start := p.Sim().Now()
			for i := 0; i < 4; i++ {
				if err := svc.OpenNodeSession(p, cl.Node(i).Name()); err != nil {
					t.Error(err)
					return
				}
			}
			cost = p.Sim().Now() - start
		}})
		client.Wait()
	})
	sim.Run()
	if cost < 4*per {
		t.Fatalf("4 node sessions cost %v, want >= %v", cost, 4*per)
	}
}

func TestPersistentDaemonsPreinstalled(t *testing.T) {
	_, cl, _ := rig(t, 3)
	// The root-daemon model: dpcld occupies a slot on every node (and the
	// front end) before any tool runs — the deployment burden §2 criticizes.
	if got := cl.FrontEnd().NumProcs(); got != 1 {
		t.Fatalf("front end has %d procs, want 1 (dpcld)", got)
	}
	for i := 0; i < 3; i++ {
		if got := cl.Node(i).NumProcs(); got != 1 {
			t.Fatalf("node%d has %d procs, want 1 (dpcld)", i, got)
		}
	}
}
