package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/engine"
	"launchmon/internal/rm"
	"launchmon/internal/rm/slurm"
	"launchmon/internal/vtime"
)

// rig boots a cluster with SLURM and LaunchMON installed.
func rig(t testing.TB, nodes int) (*vtime.Sim, *cluster.Cluster, rm.Manager) {
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
	Setup(cl, mgr)
	return sim, cl, mgr
}

// runFE runs fn as a tool front-end process on the FE node and returns
// after the simulation completes.
func runFE(t testing.TB, sim *vtime.Sim, cl *cluster.Cluster, fn func(p *cluster.Proc)) {
	t.Helper()
	sim.Go("tool-fe-boot", func() {
		if _, err := cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "tool_fe", Main: fn}); err != nil {
			t.Error(err)
		}
	})
	sim.Run()
}

func TestLaunchAndSpawnEndToEnd(t *testing.T) {
	sim, cl, _ := rig(t, 8)
	beRanks := make(chan int, 64)
	cl.Register("tool_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			t.Errorf("BEInit on %s: %v", p.Node().Name(), err)
			return
		}
		beRanks <- be.Rank()
		if len(be.MyProctab()) != 4 {
			t.Errorf("rank %d sees %d local tasks, want 4", be.Rank(), len(be.MyProctab()))
		}
		if string(be.FEData()) != "tool-bootstrap" {
			t.Errorf("rank %d FEData = %q", be.Rank(), be.FEData())
		}
		be.Finalize()
	})
	var sess *Session
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: 8, TasksPerNode: 4},
			Daemon: rm.DaemonSpec{Exe: "tool_be"},
			FEData: []byte("tool-bootstrap"),
		})
		if err != nil {
			t.Error(err)
			return
		}
		sess = s
		if len(s.Proctab()) != 32 {
			t.Errorf("proctab %d entries, want 32", len(s.Proctab()))
		}
		if err := s.Proctab().Validate(); err != nil {
			t.Error(err)
		}
		if len(s.Daemons()) != 8 {
			t.Errorf("daemon infos = %d, want 8", len(s.Daemons()))
		}
		for _, d := range s.Daemons() {
			if d.Tasks != 4 {
				t.Errorf("daemon %d reports %d tasks", d.Rank, d.Tasks)
			}
		}
	})
	close(beRanks)
	seen := map[int]bool{}
	for r := range beRanks {
		if seen[r] {
			t.Fatalf("duplicate BE rank %d", r)
		}
		seen[r] = true
	}
	if len(seen) != 8 {
		t.Fatalf("%d BE daemons initialized, want 8", len(seen))
	}
	if sess == nil {
		t.Fatal("no session")
	}
}

func TestTimelineMarksOrdered(t *testing.T) {
	sim, cl, _ := rig(t, 4)
	cl.Register("tool_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			t.Error(err)
			return
		}
		be.Finalize()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 8},
			Daemon: rm.DaemonSpec{Exe: "tool_be"},
		})
		if err != nil {
			t.Error(err)
			return
		}
		// The cut-through pipeline overlaps the handshake chain with the
		// spawn window, so the marks form two monotone chains rather than
		// one (see engine/timeline.go and launchpipe_test.go).
		assertLaunchChains(t, "launch", s.Timeline)
		// Tracing cost: 12 events x 1.5ms.
		if tc, ok := s.Timeline.Get(engine.MarkTracing); !ok || tc != 18*time.Millisecond {
			t.Errorf("tracing cost = %v, want 18ms", tc)
		}
	})
}

func TestUserDataBothDirections(t *testing.T) {
	sim, cl, _ := rig(t, 4)
	cl.Register("tool_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			t.Error(err)
			return
		}
		// Master relays one FE message to everyone, gathers replies, and
		// sends the concatenation back to the FE.
		if be.AmIMaster() {
			data, err := be.RecvFromFE()
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := be.Broadcast(data); err != nil {
				t.Error(err)
				return
			}
			replies, err := be.Gather([]byte(fmt.Sprintf("r%d", be.Rank())))
			if err != nil {
				t.Error(err)
				return
			}
			be.SendToFE(bytes.Join(replies, []byte(",")))
		} else {
			if _, err := be.Broadcast(nil); err != nil {
				t.Error(err)
				return
			}
			if _, err := be.Gather([]byte(fmt.Sprintf("r%d", be.Rank()))); err != nil {
				t.Error(err)
			}
		}
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "tool_be"},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.SendToBE([]byte("do-work")); err != nil {
			t.Error(err)
			return
		}
		got, err := s.RecvFromBE()
		if err != nil {
			t.Error(err)
			return
		}
		if string(got) != "r0,r1,r2,r3" {
			t.Errorf("gathered reply = %q", got)
		}
	})
}

func TestAttachAndSpawn(t *testing.T) {
	sim, cl, mgr := rig(t, 4)
	cl.Register("tool_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			t.Error(err)
			return
		}
		be.Finalize()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		// A "user" starts the job outside tool control.
		j, err := mgr.StartJob(rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 2})
		if err != nil {
			t.Error(err)
			return
		}
		p.Sim().Sleep(2 * time.Second) // job reaches steady state
		s, err := AttachAndSpawn(p, Options{
			JobID:  j.ID(),
			Daemon: rm.DaemonSpec{Exe: "tool_be"},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if len(s.Proctab()) != 8 {
			t.Errorf("attached proctab = %d entries, want 8", len(s.Proctab()))
		}
		if len(s.Daemons()) != 4 {
			t.Errorf("daemons = %d, want 4", len(s.Daemons()))
		}
	})
}

func TestAttachToMissingJob(t *testing.T) {
	sim, cl, _ := rig(t, 2)
	cl.Register("tool_be", func(p *cluster.Proc) {})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		if _, err := AttachAndSpawn(p, Options{JobID: 42, Daemon: rm.DaemonSpec{Exe: "tool_be"}}); err == nil {
			t.Error("attach to missing job succeeded")
		} else if !strings.Contains(err.Error(), "no such job") {
			t.Errorf("unexpected error: %v", err)
		}
	})
}

func TestKillSession(t *testing.T) {
	sim, cl, _ := rig(t, 4)
	cl.Register("tool_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			return
		}
		_ = be
		// Daemon lingers; it will be killed with the job.
		vtime.NewChan[int](p.Sim()).Recv()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 2},
			Daemon: rm.DaemonSpec{Exe: "tool_be"},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Kill(); err != nil {
			t.Error(err)
			return
		}
		// tasks and daemons gone; only slurmd remains per node.
		for i := 0; i < 4; i++ {
			if got := cl.Node(i).NumProcs(); got != 1 {
				t.Errorf("node%d has %d procs after kill", i, got)
			}
		}
		if err := s.Kill(); err != ErrSessionClosed {
			t.Errorf("second kill: %v", err)
		}
	})
}

func TestDetachLeavesJobRunning(t *testing.T) {
	sim, cl, _ := rig(t, 3)
	cl.Register("tool_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			return
		}
		be.Finalize()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: 3, TasksPerNode: 2},
			Daemon: rm.DaemonSpec{Exe: "tool_be"},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.Detach(); err != nil {
			t.Error(err)
			return
		}
		// Application tasks still alive: 2 tasks + slurmd per node (tool
		// daemons exited on their own).
		for i := 0; i < 3; i++ {
			if got := cl.Node(i).NumProcs(); got < 3 {
				t.Errorf("node%d has %d procs after detach, want >=3", i, got)
			}
		}
		if err := s.SendToBE(nil); err != ErrSessionClosed {
			t.Errorf("SendToBE after detach: %v", err)
		}
	})
}

func TestLaunchMWAndPersonalities(t *testing.T) {
	sim, cl, _ := rig(t, 8)
	cl.Register("tool_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			t.Error(err)
			return
		}
		be.Finalize()
	})
	personalities := make(chan [2]int, 16)
	cl.Register("tool_mw", func(p *cluster.Proc) {
		mw, err := MWInit(p)
		if err != nil {
			t.Errorf("MWInit: %v", err)
			return
		}
		r, sz := mw.Personality()
		personalities <- [2]int{r, sz}
		if len(mw.Proctab()) != 8 {
			t.Errorf("MW rank %d proctab = %d", r, len(mw.Proctab()))
		}
		if string(mw.FEData()) != "tree-topology" {
			t.Errorf("MW rank %d FEData = %q", r, mw.FEData())
		}
		mw.Finalize()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 2},
			Daemon: rm.DaemonSpec{Exe: "tool_be"},
		})
		if err != nil {
			t.Error(err)
			return
		}
		nodes, err := s.LaunchMW(MWOptions{
			Nodes:  3,
			Daemon: rm.DaemonSpec{Exe: "tool_mw"},
			FEData: []byte("tree-topology"),
		})
		if err != nil {
			t.Error(err)
			return
		}
		if len(nodes) != 3 {
			t.Errorf("MW nodes = %v", nodes)
		}
		if len(s.MWDaemons()) != 3 {
			t.Errorf("MW daemons = %d", len(s.MWDaemons()))
		}
		// MW nodes disjoint from job nodes.
		jobHosts := map[string]bool{}
		for _, d := range s.Proctab() {
			jobHosts[d.Host] = true
		}
		for _, n := range nodes {
			if jobHosts[n] {
				t.Errorf("MW node %s overlaps job", n)
			}
		}
	})
	close(personalities)
	count := 0
	for p := range personalities {
		count++
		if p[1] != 3 {
			t.Errorf("personality size = %d, want 3", p[1])
		}
	}
	if count != 3 {
		t.Fatalf("%d MW daemons, want 3", count)
	}
}

func TestICCLFanoutOption(t *testing.T) {
	for _, fanout := range []int{0, 2, 4} {
		fanout := fanout
		t.Run(fmt.Sprintf("fanout%d", fanout), func(t *testing.T) {
			sim, cl, _ := rig(t, 9)
			inited := make(chan struct{}, 16)
			cl.Register("tool_be", func(p *cluster.Proc) {
				be, err := BEInit(p)
				if err != nil {
					t.Error(err)
					return
				}
				inited <- struct{}{}
				be.Finalize()
			})
			runFE(t, sim, cl, func(p *cluster.Proc) {
				if _, err := LaunchAndSpawn(p, Options{
					Job:        rm.JobSpec{Exe: "app", Nodes: 9, TasksPerNode: 1},
					Daemon:     rm.DaemonSpec{Exe: "tool_be"},
					ICCLFanout: fanout,
				}); err != nil {
					t.Error(err)
				}
			})
			close(inited)
			n := 0
			for range inited {
				n++
			}
			if n != 9 {
				t.Fatalf("%d daemons initialized with fanout %d", n, fanout)
			}
		})
	}
}

func TestSessionIDsDistinctAndSequential(t *testing.T) {
	sim, cl, _ := rig(t, 4)
	cl.Register("tool_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			return
		}
		be.Finalize()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s1, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: 2, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "tool_be"},
		})
		if err != nil {
			t.Error(err)
			return
		}
		s2, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app2", Nodes: 2, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "tool_be"},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if s1.ID == s2.ID {
			t.Errorf("duplicate session ids %d", s1.ID)
		}
	})
}
