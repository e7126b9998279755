package core

import (
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/rm"
)

// Failure-injection tests: sessions must fail with errors, not hangs,
// when daemons misbehave.

// TestDaemonCrashBeforeInitTimesOut: daemons that never dial in fail the
// launch readyBound after the RM spawned the last of them.
func TestDaemonCrashBeforeInitTimesOut(t *testing.T) {
	sim, cl, _ := rig(t, 4)
	var spawned time.Duration
	cl.Register("crash_be", func(p *cluster.Proc) {
		// Crashes immediately: never calls BEInit, never dials the FE.
		spawned = max(spawned, p.Sim().Now())
	})
	var err error
	var ended time.Duration
	runFE(t, sim, cl, func(p *cluster.Proc) {
		_, err = LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "crash_be"},
		})
		ended = p.Sim().Now()
	})
	if err == nil {
		t.Fatal("session with crashing daemons succeeded")
	}
	if !strings.Contains(err.Error(), "BE master daemon did not connect") || !strings.Contains(err.Error(), "K=4") {
		t.Fatalf("unexpected error: %v", err)
	}
	bound := readyBound(4, 0, SeedCutThrough, 0)
	if took := ended - spawned; took < bound || took > bound+10*time.Millisecond {
		t.Fatalf("launch failed %v after the last daemon's spawn, want readyBound %v", took, bound)
	}
}

func TestUnknownDaemonExecutableFailsCleanly(t *testing.T) {
	sim, cl, _ := rig(t, 4)
	var err error
	runFE(t, sim, cl, func(p *cluster.Proc) {
		_, err = LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "not_installed_anywhere"},
		})
	})
	if err == nil {
		t.Fatal("session with unregistered daemon exe succeeded")
	}
	if !strings.Contains(err.Error(), "no such executable") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestJobLargerThanClusterFailsCleanly(t *testing.T) {
	sim, cl, _ := rig(t, 2)
	cl.Register("ok_be", func(p *cluster.Proc) {
		if be, err := BEInit(p); err == nil {
			be.Finalize()
		}
	})
	var err error
	runFE(t, sim, cl, func(p *cluster.Proc) {
		_, err = LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: 64, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "ok_be"},
		})
	})
	if err == nil {
		t.Fatal("oversized job accepted")
	}
}

func TestMasterOnlyCrashStillTimesOut(t *testing.T) {
	// Only the master (rank 0) daemon dies; the rest come up and block in
	// ICCL bootstrap. The FE must still time out rather than hang.
	sim, cl, _ := rig(t, 4)
	cl.Register("half_be", func(p *cluster.Proc) {
		if p.Env(rm.EnvNodeID) == "0" {
			return // master crashes before dialing the FE
		}
		BEInit(p) // children block dialing the dead master, then give up
	})
	var err error
	runFE(t, sim, cl, func(p *cluster.Proc) {
		_, err = LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "half_be"},
		})
	})
	if err == nil {
		t.Fatal("session with dead master succeeded")
	}
}

func TestMWUnknownExecutableFailsCleanly(t *testing.T) {
	sim, cl, _ := rig(t, 8)
	cl.Register("ok_be", func(p *cluster.Proc) {
		if be, err := BEInit(p); err == nil {
			be.Finalize()
		}
	})
	var launchErr, mwErr error
	runFE(t, sim, cl, func(p *cluster.Proc) {
		sess, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "ok_be"},
		})
		if err != nil {
			launchErr = err
			return
		}
		_, mwErr = sess.LaunchMW(MWOptions{Nodes: 2, Daemon: rm.DaemonSpec{Exe: "ghost_mw"}})
	})
	if launchErr != nil {
		t.Fatal(launchErr)
	}
	if mwErr == nil {
		t.Fatal("MW launch with unregistered exe succeeded")
	}
}

func TestDoubleLaunchMWRejected(t *testing.T) {
	sim, cl, _ := rig(t, 8)
	cl.Register("ok_be", func(p *cluster.Proc) {
		if be, err := BEInit(p); err == nil {
			be.Finalize()
		}
	})
	cl.Register("ok_mw", func(p *cluster.Proc) {
		if mw, err := MWInit(p); err == nil {
			mw.Finalize()
		}
	})
	var second error
	runFE(t, sim, cl, func(p *cluster.Proc) {
		sess, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "ok_be"},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := sess.LaunchMW(MWOptions{Nodes: 2, Daemon: rm.DaemonSpec{Exe: "ok_mw"}}); err != nil {
			t.Error(err)
			return
		}
		_, second = sess.LaunchMW(MWOptions{Nodes: 1, Daemon: rm.DaemonSpec{Exe: "ok_mw"}})
	})
	if second == nil {
		t.Fatal("second LaunchMW accepted")
	}
}

func TestOperationsOnKilledSessionFail(t *testing.T) {
	sim, cl, _ := rig(t, 2)
	cl.Register("ok_be", func(p *cluster.Proc) {
		if be, err := BEInit(p); err == nil {
			be.Finalize()
		}
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		sess, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: 2, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "ok_be"},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := sess.Kill(); err != nil {
			t.Error(err)
			return
		}
		if _, err := sess.LaunchMW(MWOptions{Nodes: 1, Daemon: rm.DaemonSpec{Exe: "x"}}); err != ErrSessionClosed {
			t.Errorf("LaunchMW on killed session: %v", err)
		}
		if _, err := sess.RecvFromBE(); err != ErrSessionClosed {
			t.Errorf("RecvFromBE on killed session: %v", err)
		}
		if err := sess.Detach(); err != ErrSessionClosed {
			t.Errorf("Detach on killed session: %v", err)
		}
	})
}
