package rsh

import (
	"errors"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/lmonp"
	"launchmon/internal/rm"
	"launchmon/internal/vtime"
)

func rig(t *testing.T, nodes int, clOpts cluster.Options) (*vtime.Sim, *cluster.Cluster, *Service) {
	t.Helper()
	sim := vtime.New()
	clOpts.Nodes = nodes
	cl, err := cluster.New(sim, clOpts)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Install(cl)
	if err != nil {
		t.Fatal(err)
	}
	return sim, cl, svc
}

func TestSpawnPlacesDaemonsWithEnv(t *testing.T) {
	sim, cl, svc := rig(t, 4, cluster.Options{})
	var hosts []string
	var ids []string
	cl.Register("mydaemon", func(p *cluster.Proc) {
		hosts = append(hosts, p.Node().Name())
		ids = append(ids, p.Env("ID"))
	})
	sim.Go("fe", func() {
		p, err := cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "tool", Main: func(p *cluster.Proc) {
			nodes := []string{"node0", "node1", "node2", "node3"}
			envs := make([]map[string]string, len(nodes))
			for i := range envs {
				envs[i] = map[string]string{"ID": strconv.Itoa(i)}
			}
			if err := svc.Spawn(p, nodes, "mydaemon", nil, envs); err != nil {
				t.Error(err)
			}
		}})
		if err != nil {
			t.Error(err)
			return
		}
		p.Wait()
	})
	sim.Run()
	if len(hosts) != 4 {
		t.Fatalf("daemons on %d nodes", len(hosts))
	}
	for i, h := range hosts {
		if h != "node"+ids[i] {
			t.Errorf("daemon with ID %s on %s", ids[i], h)
		}
	}
}

func TestSequentialLinearCost(t *testing.T) {
	timeFor := func(n int) time.Duration {
		sim, cl, svc := rig(t, n, cluster.Options{})
		cl.Register("d", func(p *cluster.Proc) { vtime.NewChan[int](p.Sim()).Recv() })
		var dur time.Duration
		sim.Go("fe", func() {
			cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "tool", Main: func(p *cluster.Proc) {
				nodes := make([]string, n)
				envs := make([]map[string]string, n)
				for i := range nodes {
					nodes[i] = cl.Node(i).Name()
				}
				start := p.Sim().Now()
				if err := svc.Spawn(p, nodes, "d", nil, envs); err != nil {
					t.Error(err)
					return
				}
				dur = p.Sim().Now() - start
			}})
		})
		sim.Run()
		return dur
	}
	t4 := timeFor(4)
	t16 := timeFor(16)
	if t4 == 0 || t16 == 0 {
		t.Fatal("spawn did not complete")
	}
	ratio := float64(t16) / float64(t4)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("rsh spawn not linear: t4=%v t16=%v ratio=%.2f", t4, t16, ratio)
	}
	// Per-node cost should be in the paper's ballpark (~0.24 s/node).
	perNode := t16 / 16
	if perNode < 150*time.Millisecond || perNode > 350*time.Millisecond {
		t.Fatalf("per-node rsh cost %v outside calibrated range", perNode)
	}
}

func TestFrontEndProcessLimitFailure(t *testing.T) {
	// With a front-end process table capped at 40, a 64-node rsh launch
	// must fail partway: the resident rsh clients exhaust the table (the
	// paper's consistent failure at 512 nodes, scaled down).
	sim, cl, svc := rig(t, 64, cluster.Options{MaxProcs: 40})
	cl.Register("d", func(p *cluster.Proc) { vtime.NewChan[int](p.Sim()).Recv() })
	var spawnErr error
	sim.Go("fe", func() {
		cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "tool", Main: func(p *cluster.Proc) {
			nodes := make([]string, 64)
			envs := make([]map[string]string, 64)
			for i := range nodes {
				nodes[i] = cl.Node(i).Name()
			}
			spawnErr = svc.Spawn(p, nodes, "d", nil, envs)
		}})
	})
	sim.Run()
	if spawnErr == nil {
		t.Fatal("64-node rsh launch with a 40-proc front end succeeded")
	}
	if !errors.Is(spawnErr, errSpawn) {
		t.Fatalf("error = %v, want ErrSpawn wrap", spawnErr)
	}
	if !errors.Is(spawnErr, cluster.ErrProcLimit) && !strings.Contains(spawnErr.Error(), "resource temporarily unavailable") {
		t.Fatalf("failure not a fork limit: %v", spawnErr)
	}
}

func TestClientsLingerUntilDaemonExit(t *testing.T) {
	sim, cl, svc := rig(t, 2, cluster.Options{})
	var daemons []*cluster.Proc
	cl.Register("d", func(p *cluster.Proc) {
		daemons = append(daemons, p)
		vtime.NewChan[int](p.Sim()).Recv() // lingers until killed
	})
	var midCount, endCount int
	sim.Go("fe", func() {
		cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "tool", Main: func(p *cluster.Proc) {
			nodes := []string{"node0", "node1"}
			envs := make([]map[string]string, 2)
			if err := svc.Spawn(p, nodes, "d", nil, envs); err != nil {
				t.Error(err)
				return
			}
			// tool + 2 resident rsh clients.
			midCount = cl.FrontEnd().NumProcs()
			for _, d := range daemons {
				d.Kill()
			}
			p.Sim().Sleep(time.Second) // EOF propagates, clients exit
			endCount = cl.FrontEnd().NumProcs()
		}})
	})
	sim.Run()
	if midCount != 3 {
		t.Fatalf("front end has %d procs during session, want 3 (tool + 2 rsh)", midCount)
	}
	if endCount != 1 {
		t.Fatalf("front end has %d procs after daemon exit, want 1", endCount)
	}
}

// TestSpawnRequestEnvTravelsInKeyOrder stands in for sshd and reads the
// rsh client's requests as they arrive: the environment must be on the
// wire in key order, so the request is a function of the spawn and not of
// a map's iteration order.
func TestSpawnRequestEnvTravelsInKeyOrder(t *testing.T) {
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]string{}
	for i := 0; i < 16; i++ {
		env["TOOL_K"+strconv.Itoa(10+i)] = strconv.Itoa(i)
	}
	requests := 0
	if _, err := cl.Node(0).SpawnSystemProc(cluster.Spec{Exe: "sshd", Main: func(p *cluster.Proc) {
		rm.Serve(p, Port, func(rd *lmonp.Reader, reply rm.Reply) {
			exe, _, kv := rd.String(), rd.StringList(), rd.StringMap()
			if rd.Err() != nil || exe != "d" || len(kv) != 16 {
				t.Errorf("request: exe %q, %d variables (%v)", exe, len(kv), rd.Err())
			}
			if !sort.SliceIsSorted(kv, func(a, b int) bool { return kv[a][0] < kv[b][0] }) {
				t.Errorf("environment not in key order on the wire: %v", kv)
			}
			requests++
			reply(nil, nil)
		})
	}}); err != nil {
		t.Fatal(err)
	}
	svc := &Service{cl: cl}
	sim.Go("fe", func() {
		sim.Sleep(time.Millisecond) // the stand-in is listening
		p, err := cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "tool", Passive: true})
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 100; i++ {
			if err := svc.Spawn(p, []string{"node0"}, "d", nil, []map[string]string{env}); err != nil {
				t.Error(err)
			}
		}
	})
	sim.Run()
	if requests != 100 {
		t.Errorf("%d requests arrived, want 100", requests)
	}
}
