package jobsnap

import (
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/core"
	"launchmon/internal/rm"
)

// TestFigure4OperationSequence walks the exact operation sequence of the
// paper's Figure 4 with explicit assertions at each step:
//
//	fe: init → createFEBESession/attachAndSpawnDaemons → block in the
//	    collective gather until every daemon contributed ("work-done") →
//	    merge → detach
//	be: init → handshake/ready → collect per-task info → contribute to
//	    the tree-routed gather
func TestFigure4OperationSequence(t *testing.T) {
	sim, cl, mgr := rig(t, 4)
	const tpn = 3
	sim.Go("boot", func() {
		cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "jobsnap_fe", Main: func(p *cluster.Proc) {
			job, err := mgr.StartJob(rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: tpn})
			if err != nil {
				t.Error(err)
				return
			}
			p.Sim().Sleep(2 * time.Second)

			// Step 1: attachAndSpawnDaemons returns with the session up
			// and the RPDTAB known — before any work-done arrives.
			sess, err := core.AttachAndSpawn(p, core.Options{
				JobID:  job.ID(),
				Daemon: rm.DaemonSpec{Exe: beExe},
			})
			if err != nil {
				t.Error(err)
				return
			}
			attachDone := p.Sim().Now()
			if len(sess.Proctab()) != 4*tpn {
				t.Errorf("proctab %d entries at attach return", len(sess.Proctab()))
			}
			if len(sess.Daemons()) != 4 {
				t.Errorf("%d daemons at attach return", len(sess.Daemons()))
			}

			// Steps 2-4 happen in the daemons; the FE blocks in the
			// collective gather until every daemon's contribution arrived
			// (the "work-done" point), then merges the report locally.
			blobs, err := sess.Gather()
			if err != nil {
				t.Error(err)
				return
			}
			workDone := p.Sim().Now()
			if workDone < attachDone {
				t.Error("work-done before attach returned")
			}
			if len(blobs) != 4 {
				t.Errorf("gathered %d contributions, want 4", len(blobs))
			}
			report, err := mergeReport(blobs)
			if err != nil {
				t.Error(err)
				return
			}
			lines := strings.Count(report, "\n") - 1
			if lines != 4*tpn {
				t.Errorf("report has %d lines, want %d", lines, 4*tpn)
			}

			// Final step: detach; the job must survive.
			if err := sess.Detach(); err != nil {
				t.Error(err)
				return
			}
			p.Sim().Sleep(time.Second)
			for i := 0; i < 4; i++ {
				// tpn tasks + slurmd per node; jobsnap daemons gone.
				if got := cl.Node(i).NumProcs(); got != tpn+1 {
					t.Errorf("node%d has %d procs after detach, want %d", i, got, tpn+1)
				}
			}
		}})
	})
	sim.Run()
}
