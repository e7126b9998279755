package core

import (
	"fmt"
	"strings"
	"testing"

	"launchmon/internal/cluster"
	"launchmon/internal/rm"
	"launchmon/internal/rm/alps"
	"launchmon/internal/rm/bgl"
	"launchmon/internal/rm/slurm"
	"launchmon/internal/vtime"
)

// TestPortabilityAcrossResourceManagers is the paper's m×n → m+n claim as
// a test: exactly the same tool code (front end and back-end daemon) runs
// unchanged over three structurally different resource managers — the
// SLURM-like launch tree, the BG/L-like mpirun profile, and the ALPS-like
// star — because LaunchMON confines all platform specifics to the
// rm.Manager the engine is constructed with.
func TestPortabilityAcrossResourceManagers(t *testing.T) {
	managers := []struct {
		name    string
		install func(cl *cluster.Cluster) (rm.Manager, error)
	}{
		{"slurm", func(cl *cluster.Cluster) (rm.Manager, error) { return slurm.Install(cl, slurm.Config{}) }},
		{"bgl-mpirun", func(cl *cluster.Cluster) (rm.Manager, error) { return bgl.Install(cl) }},
		{"alps", func(cl *cluster.Cluster) (rm.Manager, error) { return alps.Install(cl) }},
	}
	for _, mgr := range managers {
		mgr := mgr
		t.Run(mgr.name, func(t *testing.T) {
			sim := vtime.New()
			cl, err := cluster.New(sim, cluster.Options{Nodes: 6})
			if err != nil {
				t.Fatal(err)
			}
			m, err := mgr.install(cl)
			if err != nil {
				t.Fatal(err)
			}
			Setup(cl, m)

			// The identical tool, verbatim, for every RM.
			cl.Register("portable_be", func(p *cluster.Proc) {
				be, err := BEInit(p)
				if err != nil {
					t.Errorf("[%s] BEInit: %v", mgr.name, err)
					return
				}
				line := fmt.Sprintf("%d:%d", be.Rank(), len(be.MyProctab()))
				all, err := be.Gather([]byte(line))
				if err != nil {
					return
				}
				if be.AmIMaster() {
					var out []byte
					for _, l := range all {
						out = append(out, l...)
						out = append(out, ' ')
					}
					be.SendToFE(out)
				}
				be.Finalize()
			})

			var summary string
			runFE(t, sim, cl, func(p *cluster.Proc) {
				sess, err := LaunchAndSpawn(p, Options{
					Job:    rm.JobSpec{Exe: "app", Nodes: 6, TasksPerNode: 3},
					Daemon: rm.DaemonSpec{Exe: "portable_be"},
				})
				if err != nil {
					t.Errorf("[%s] LaunchAndSpawn: %v", mgr.name, err)
					return
				}
				if len(sess.Proctab()) != 18 {
					t.Errorf("[%s] proctab = %d entries", mgr.name, len(sess.Proctab()))
				}
				if err := sess.Proctab().Validate(); err != nil {
					t.Errorf("[%s] %v", mgr.name, err)
				}
				if len(sess.Daemons()) != 6 {
					t.Errorf("[%s] daemons = %d", mgr.name, len(sess.Daemons()))
				}
				got, err := sess.RecvFromBE()
				if err != nil {
					t.Errorf("[%s] RecvFromBE: %v", mgr.name, err)
					return
				}
				summary = string(got)
				if err := sess.Kill(); err != nil {
					t.Errorf("[%s] Kill: %v", mgr.name, err)
				}
			})
			want := "0:3 1:3 2:3 3:3 4:3 5:3 "
			if summary != want {
				t.Fatalf("[%s] gathered %q, want %q", mgr.name, summary, want)
			}
		})
	}
}

// TestAttachPortability runs attachAndSpawn across all three RMs.
func TestAttachPortability(t *testing.T) {
	managers := []struct {
		name    string
		install func(cl *cluster.Cluster) (rm.Manager, error)
	}{
		{"slurm", func(cl *cluster.Cluster) (rm.Manager, error) { return slurm.Install(cl, slurm.Config{}) }},
		{"alps", func(cl *cluster.Cluster) (rm.Manager, error) { return alps.Install(cl) }},
	}
	for _, mgr := range managers {
		mgr := mgr
		t.Run(mgr.name, func(t *testing.T) {
			sim := vtime.New()
			cl, err := cluster.New(sim, cluster.Options{Nodes: 4})
			if err != nil {
				t.Fatal(err)
			}
			m, err := mgr.install(cl)
			if err != nil {
				t.Fatal(err)
			}
			Setup(cl, m)
			cl.Register("portable_be", func(p *cluster.Proc) {
				if be, err := BEInit(p); err == nil {
					be.Finalize()
				}
			})
			runFE(t, sim, cl, func(p *cluster.Proc) {
				j, err := m.StartJob(rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 2})
				if err != nil {
					t.Error(err)
					return
				}
				p.Sim().Sleep(10 * 1e9) // 10s: job reaches steady state
				sess, err := AttachAndSpawn(p, Options{JobID: j.ID(), Daemon: rm.DaemonSpec{Exe: "portable_be"}})
				if err != nil {
					t.Errorf("[%s] attach: %v", mgr.name, err)
					return
				}
				if len(sess.Proctab()) != 8 {
					t.Errorf("[%s] proctab = %d", mgr.name, len(sess.Proctab()))
				}
				// A killed job has left the RM: a second attach finds no such
				// job instead of attaching to a corpse.
				if err := sess.Kill(); err != nil {
					t.Errorf("[%s] kill: %v", mgr.name, err)
				}
				_, err = AttachAndSpawn(p, Options{JobID: j.ID(), Daemon: rm.DaemonSpec{Exe: "portable_be"}})
				if err == nil || !strings.Contains(err.Error(), rm.ErrNoSuchJob.Error()) {
					t.Errorf("[%s] attach to a killed job: %v, want %v", mgr.name, err, rm.ErrNoSuchJob)
				}
			})
		})
	}
}
