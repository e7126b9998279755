package tbon

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/rsh"
	"launchmon/internal/vtime"
)

func rig(t *testing.T, nodes int) (*vtime.Sim, *cluster.Cluster) {
	t.Helper()
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	return sim, cl
}

// spawnLeaves starts n leaf daemons that connect to parentAddr and answer
// one request with fn(rank).
func spawnLeaves(t *testing.T, cl *cluster.Cluster, n int, parentAddr string, fn func(rank int, pkt Packet) []byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		i := i
		if _, err := cl.Node(i).SpawnProc(cluster.Spec{Exe: "leaf", Main: func(p *cluster.Proc) {
			l, err := ConnectLeaf(p, parentAddr, i)
			if err != nil {
				t.Errorf("leaf %d: %v", i, err)
				return
			}
			defer l.Close()
			for {
				pkt, err := l.Recv()
				if err != nil {
					return
				}
				pkt.Data = fn(i, pkt)
				if err := l.Send(pkt); err != nil {
					return
				}
			}
		}}); err != nil {
			t.Error(err)
			return
		}
	}
}

func TestFlatRequestReduce(t *testing.T) {
	sim, cl := rig(t, 8)
	sum := func(a, b []byte) []byte {
		if a == nil {
			return b
		}
		x, _ := strconv.Atoi(string(a))
		y, _ := strconv.Atoi(string(b))
		return []byte(strconv.Itoa(x + y))
	}
	var got string
	sim.Go("root", func() {
		cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "fe", Main: func(p *cluster.Proc) {
			fe, err := NewFrontEnd(p)
			if err != nil {
				t.Error(err)
				return
			}
			defer fe.Close()
			spawnLeaves(t, cl, 8, fe.Addr(), func(rank int, pkt Packet) []byte {
				return []byte(strconv.Itoa(rank))
			})
			if err := fe.AcceptChildren(8); err != nil {
				t.Error(err)
				return
			}
			if len(fe.children) != 8 {
				t.Errorf("children = %d", len(fe.children))
			}
			out, err := fe.Request(Packet{Stream: 1, Tag: 7, Filter: "sum-test", Data: []byte("go")}, sum)
			if err != nil {
				t.Error(err)
				return
			}
			got = string(out)
		}})
	})
	sim.Run()
	if got != "28" { // 0+1+...+7
		t.Fatalf("reduced sum = %q, want 28", got)
	}
}

// concat is the merge that keeps every reply, in child order.
func concat(acc, reply []byte) []byte { return append(acc, reply...) }

func TestConcatFilterCollectsAll(t *testing.T) {
	sim, cl := rig(t, 5)
	var got string
	sim.Go("root", func() {
		cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "fe", Main: func(p *cluster.Proc) {
			fe, err := NewFrontEnd(p)
			if err != nil {
				t.Error(err)
				return
			}
			defer fe.Close()
			spawnLeaves(t, cl, 5, fe.Addr(), func(rank int, pkt Packet) []byte {
				return []byte(fmt.Sprintf("<%d>", rank))
			})
			if err := fe.AcceptChildren(5); err != nil {
				t.Error(err)
				return
			}
			out, err := fe.Request(Packet{Stream: 1, Filter: "concat"}, concat)
			if err != nil {
				t.Error(err)
				return
			}
			got = string(out)
		}})
	})
	sim.Run()
	for r := 0; r < 5; r++ {
		if !strings.Contains(got, fmt.Sprintf("<%d>", r)) {
			t.Fatalf("reply %q missing rank %d", got, r)
		}
	}
}

func TestNativeLaunchViaRsh(t *testing.T) {
	sim, cl := rig(t, 4)
	svc, err := rsh.Install(cl)
	if err != nil {
		t.Fatal(err)
	}
	cl.Register("tbon_leaf", func(p *cluster.Proc) {
		rank, _ := strconv.Atoi(p.Env(EnvRank))
		l, err := ConnectLeaf(p, p.Env(EnvParent), rank)
		if err != nil {
			t.Errorf("leaf: %v", err)
			return
		}
		defer l.Close()
		for {
			pkt, err := l.Recv()
			if err != nil {
				return
			}
			pkt.Data = []byte{byte(rank)}
			if err := l.Send(pkt); err != nil {
				return
			}
		}
	})
	var leaves int
	sim.Go("root", func() {
		cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "fe", Main: func(p *cluster.Proc) {
			fe, err := LaunchNativeFlat(p, svc, []string{"node0", "node1", "node2", "node3"}, "tbon_leaf", nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer fe.Close()
			leaves = len(fe.children)
			if _, err := fe.Request(Packet{Stream: 1, Filter: "concat"}, concat); err != nil {
				t.Error(err)
			}
		}})
	})
	sim.Run()
	if leaves != 4 {
		t.Fatalf("native launch connected %d leaves", leaves)
	}
}

func TestAcceptCostLinearInChildren(t *testing.T) {
	connectTime := func(n int) time.Duration {
		sim, cl := rig(t, n)
		var dur time.Duration
		sim.Go("root", func() {
			cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "fe", Main: func(p *cluster.Proc) {
				fe, err := NewFrontEnd(p)
				if err != nil {
					t.Error(err)
					return
				}
				defer fe.Close()
				spawnLeaves(t, cl, n, fe.Addr(), func(int, Packet) []byte { return nil })
				start := p.Sim().Now()
				if err := fe.AcceptChildren(n); err != nil {
					t.Error(err)
					return
				}
				dur = p.Sim().Now() - start
			}})
		})
		sim.Run()
		return dur
	}
	t8 := connectTime(8)
	t32 := connectTime(32)
	if t8 == 0 || t32 == 0 {
		t.Fatal("connect did not complete")
	}
	ratio := float64(t32) / float64(t8)
	if ratio < 3 || ratio > 5.5 {
		t.Fatalf("1-deep connect not ~linear: t8=%v t32=%v", t8, t32)
	}
}
