package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/engine"
	"launchmon/internal/health"
	"launchmon/internal/rm"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// Middleware-fabric parity regressions: every MW rank must read a table
// byte-identical to the FE's whichever pipeline launched the BE fabric,
// the MW mark chain must stay monotone, MW faults must surface (mid-seed and
// mid-session) exactly like BE faults, and the MW collective plane must
// report the terminal fault detail on a torn-down session.

// seedHash fingerprints a daemon's reassembled seed (table + FEData).
func seedHash(tab, feData []byte) []byte {
	h := fnv.New64a()
	h.Write(tab)
	h.Write(feData)
	return h.Sum(nil)
}

// TestMWSeedByteIdenticalBothBEPipelines launches middleware on a session
// whose BE fabric came up under each seed pipeline and checks every MW
// rank reads the exact bytes the front end holds — the FE publishes the
// shared index under store-forward too, so an MW fabric on a store-forward
// session is not left without a table — gathering the fingerprints over
// the MW collective plane. It also pins the MW mark chain m7≤m8≤m9≤m10
// (after e11) and the per-rank mw_seed_validated mark.
func TestMWSeedByteIdenticalBothBEPipelines(t *testing.T) {
	for _, mode := range []SeedMode{SeedCutThrough, SeedStoreForward} {
		t.Run(mode.String(), func(t *testing.T) {
			const jobNodes, mwNodes = 4, 5
			sim, cl, _ := rig(t, jobNodes+mwNodes)
			cl.Register("mwbi_be", func(p *cluster.Proc) {
				if be, err := BEInit(p); err == nil {
					be.Finalize()
				}
			})
			cl.Register("mwbi_mw", func(p *cluster.Proc) {
				mw, err := MWInit(p)
				if err != nil {
					t.Errorf("MWInit: %v", err)
					return
				}
				if v := p.Env(EnvSeedMode); v != "" {
					t.Errorf("MW daemon environment carries %s=%q; the MW fabric has one seed pipeline", EnvSeedMode, v)
				}
				tl := mw.timeline()
				if _, ok := tl.Get(engine.MarkMWSeedValid); !ok {
					t.Errorf("MW rank %d: no mw_seed_validated mark", mw.Rank())
				}
				if err := mw.Collective().Gather(seedHash(mw.Proctab().Encode(), mw.FEData())); err != nil {
					t.Errorf("MW rank %d gather: %v", mw.Rank(), err)
				}
				mw.Finalize()
			})
			runFE(t, sim, cl, func(p *cluster.Proc) {
				s, err := LaunchAndSpawn(p, Options{
					Job:    rm.JobSpec{Exe: "app", Nodes: jobNodes, TasksPerNode: 8},
					Daemon: rm.DaemonSpec{Exe: "mwbi_be"},
					// Small chunks so the BE stream is genuinely multi-chunk.
					ProctabChunkBytes: 256,
					SeedMode:          mode,
				})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.LaunchMW(MWOptions{
					Nodes:      mwNodes,
					Daemon:     rm.DaemonSpec{Exe: "mwbi_mw"},
					FEData:     []byte("mw-seed-fedata"),
					ICCLFanout: 2,
				}); err != nil {
					t.Error(err)
					return
				}
				want := string(seedHash(s.Proctab().Encode(), []byte("mw-seed-fedata")))
				hashes, err := s.MWGather()
				if err != nil {
					t.Error(err)
					return
				}
				if len(hashes) != mwNodes {
					t.Fatalf("%d MW contributions, want %d", len(hashes), mwNodes)
				}
				for rank, h := range hashes {
					if string(h) != want {
						t.Errorf("MW rank %d seed bytes differ from the front end's", rank)
					}
				}
				// The MW chain is monotone and the cut-through overlap mark
				// is present.
				if err := s.Timeline.CheckChains(engine.MWChain); err != nil {
					t.Error(err)
				}
				// The chain starts after the session established: middleware
				// can only be requested on a live session.
				e11, _ := s.Timeline.Get(engine.MarkE11)
				if start, _ := s.Timeline.Get(engine.MWChain[0]); start < e11 {
					t.Errorf("MW chain starts at %v, before e11 at %v", start, e11)
				}
				if _, ok := s.Timeline.Get(engine.MarkMWSeedValid); !ok {
					t.Error("MW master mw_seed_validated mark missing from merged timeline")
				}
				if _, ok := s.Timeline.Get(engine.MarkMWSeedFwd); !ok {
					t.Error("mw_seed_first_forward mark missing")
				}
			})
		})
	}
}

// TestMWKillMidSeedSurfacesFault kills the MW master's node while the MW
// seed is in flight: LaunchMW must return an error wrapping the
// severed-link fault (not hang), the simulation must quiesce, and the
// launch slot must be released for a retry once the relay is reaped.
// The seed payload is sized so the relay occupies the links well past the
// kill delay — the kill must land mid-seed by construction, not by
// accident of the MW fabric's bring-up pace.
func TestMWKillMidSeedSurfacesFault(t *testing.T) {
	const jobNodes, mwNodes = 4, 8
	sim, cl, _ := rig(t, jobNodes+mwNodes)
	cl.Register("mwmf_be", func(p *cluster.Proc) {
		if be, err := BEInit(p); err == nil {
			be.Finalize()
		}
	})
	masterHost := vtime.NewChan[string](sim)
	cl.Register("mwmf_mw", func(p *cluster.Proc) {
		if p.Env(rm.EnvNodeID) == "0" {
			masterHost.Send(p.Node().Name())
		}
		if mw, err := MWInit(p); err == nil {
			mw.Finalize()
		}
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:               rm.JobSpec{Exe: "app", Nodes: jobNodes, TasksPerNode: 32},
			Daemon:            rm.DaemonSpec{Exe: "mwmf_be"},
			ProctabChunkBytes: 256,
		})
		if err != nil {
			t.Error(err)
			return
		}
		sim.Go("mw-mid-seed-killer", func() {
			host, ok := masterHost.Recv()
			if !ok {
				return
			}
			// Let the MW master dial in and the handshake + first chunks
			// land, then fail its node while the MW tree is still forming.
			sim.Sleep(3 * time.Millisecond)
			if !cl.KillNodeByName(host) {
				t.Errorf("KillNodeByName(%q) found nothing", host)
			}
		})
		_, err = s.LaunchMW(MWOptions{
			Nodes:  mwNodes,
			Daemon: rm.DaemonSpec{Exe: "mwmf_mw"},
			// ~6.7 ms of link time per hop at the default 1.2 GB/s: the
			// 3 ms kill is guaranteed to sever the seed stream in flight.
			FEData:     bytes.Repeat([]byte("mw-seed-bulk"), 1<<20/2),
			ICCLFanout: 2,
		})
		if err == nil {
			t.Error("LaunchMW succeeded despite the MW master's node dying mid-seed")
			return
		}
		if !errors.Is(err, simnet.ErrPeerDead) {
			t.Errorf("LaunchMW error does not wrap the severed-link fault: %v", err)
		}
		// The session itself is still healthy: BE operations keep working.
		if err := s.Kill(); err != nil {
			t.Errorf("Kill after failed LaunchMW: %v", err)
		}
	})
}

// TestMWCollectiveOnTornDownSessionWrapsFault tears the session down via
// BE-daemon loss mid-session and checks the MW-plane receives report the
// terminal fault detail — the MW mirror of the RecvFromBE contract.
func TestMWCollectiveOnTornDownSessionWrapsFault(t *testing.T) {
	const jobNodes, mwNodes = 4, 3
	sim, cl, _ := rig(t, jobNodes+mwNodes)
	registerResidentBE(t, cl, "mwtd_be")
	cl.Register("mwtd_mw", func(p *cluster.Proc) {
		if _, err := MWInit(p); err != nil {
			return
		}
		vtime.NewChan[int](p.Sim()).Recv() // resident until killed
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: jobNodes, TasksPerNode: 2},
			Daemon: rm.DaemonSpec{Exe: "mwtd_be"},
			Health: HealthOptions{Period: 200 * time.Millisecond},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := s.LaunchMW(MWOptions{
			Nodes:  mwNodes,
			Daemon: rm.DaemonSpec{Exe: "mwtd_mw"},
		}); err != nil {
			t.Error(err)
			return
		}
		chans := collectEvents(s, sim)
		p.Sim().Sleep(500 * time.Millisecond)

		// Kill a BE daemon's node; the watchdog tears the whole session
		// down, middleware included.
		var victimHost string
		for _, d := range s.Daemons() {
			if d.Rank == 2 {
				victimHost = d.Host
			}
		}
		if !cl.KillNodeByName(victimHost) {
			t.Errorf("KillNodeByName(%q) found nothing", victimHost)
			return
		}
		if _, ok := chans[health.EvSessionTornDown].Recv(); !ok {
			t.Error("no SessionTornDown event")
			return
		}
		if _, err := s.MWGather(); !errors.Is(err, ErrSessionClosed) ||
			!strings.Contains(err.Error(), "lost") {
			t.Errorf("MWGather after teardown: %v", err)
		}
		if _, err := s.RecvFromMW(); !errors.Is(err, ErrSessionClosed) ||
			!strings.Contains(err.Error(), "lost") {
			t.Errorf("RecvFromMW after teardown: %v", err)
		}
		if err := s.SendToMW(nil); err != ErrSessionClosed {
			t.Errorf("SendToMW after teardown: %v", err)
		}
	})
}

// TestMWDaemonLossFiresCallbacksAndTearsDown enables failure detection on
// the MW fabric and kills a non-master MW daemon's node: the loss must
// reach the front end as a DaemonExited status event tagged as an MW
// fault, and the watchdog must tear the session down — exactly the BE
// semantics, on the other fabric.
func TestMWDaemonLossFiresCallbacksAndTearsDown(t *testing.T) {
	const jobNodes, mwNodes = 2, 4
	period := 200 * time.Millisecond
	sim, cl, _ := rig(t, jobNodes+mwNodes)
	registerResidentBE(t, cl, "mwhl_be")
	cl.Register("mwhl_mw", func(p *cluster.Proc) {
		if _, err := MWInit(p); err != nil {
			return
		}
		vtime.NewChan[int](p.Sim()).Recv() // resident until killed
	})
	var exited health.Event
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: jobNodes, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "mwhl_be"},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := s.LaunchMW(MWOptions{
			Nodes:  mwNodes,
			Daemon: rm.DaemonSpec{Exe: "mwhl_mw"},
			Health: HealthOptions{Period: period, Miss: 3},
		}); err != nil {
			t.Error(err)
			return
		}
		chans := collectEvents(s, sim)
		p.Sim().Sleep(1 * time.Second)

		const victim = 2
		var victimHost string
		for _, d := range s.MWDaemons() {
			if d.Rank == victim {
				victimHost = d.Host
			}
		}
		if victimHost == "" {
			t.Errorf("no MW daemon with rank %d", victim)
			return
		}
		if !cl.KillNodeByName(victimHost) {
			t.Errorf("KillNodeByName(%q) found nothing", victimHost)
			return
		}
		ev, ok := chans[health.EvDaemonExited].Recv()
		if !ok {
			t.Error("no DaemonExited event")
			return
		}
		exited = ev
		if _, ok := chans[health.EvSessionTornDown].Recv(); !ok {
			t.Error("no SessionTornDown event")
			return
		}
		if _, err := s.MWGather(); !errors.Is(err, ErrSessionClosed) ||
			!strings.Contains(err.Error(), fmt.Sprintf("mw daemon rank %d lost", victim)) {
			t.Errorf("MWGather after MW loss: %v", err)
		}
	})
	if exited.Rank != 2 {
		t.Errorf("DaemonExited rank = %d, want 2", exited.Rank)
	}
	if !strings.Contains(exited.Detail, "mw fabric") {
		t.Errorf("DaemonExited detail %q does not name the MW fabric", exited.Detail)
	}
}

// TestDoubleLaunchMWWhileInFlight pins the launch-slot guard under the
// cut-through pipeline: a second LaunchMW issued while the first is still
// relaying the seed must be rejected without disturbing the first.
func TestDoubleLaunchMWWhileInFlight(t *testing.T) {
	const jobNodes, mwNodes = 2, 3
	sim, cl, _ := rig(t, jobNodes+mwNodes)
	cl.Register("mwdl_be", func(p *cluster.Proc) {
		if be, err := BEInit(p); err == nil {
			be.Finalize()
		}
	})
	cl.Register("mwdl_mw", func(p *cluster.Proc) {
		if mw, err := MWInit(p); err == nil {
			mw.Finalize()
		}
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: jobNodes, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "mwdl_be"},
		})
		if err != nil {
			t.Error(err)
			return
		}
		second := vtime.NewChan[error](sim)
		sim.Go("racing-launchmw", func() {
			// One virtual millisecond in: the first LaunchMW has claimed
			// the slot and is still relaying the seed.
			sim.Sleep(1 * time.Millisecond)
			_, err := s.LaunchMW(MWOptions{Nodes: 1, Daemon: rm.DaemonSpec{Exe: "mwdl_mw"}})
			second.Send(err)
		})
		if _, err := s.LaunchMW(MWOptions{
			Nodes:  mwNodes,
			Daemon: rm.DaemonSpec{Exe: "mwdl_mw"},
		}); err != nil {
			t.Errorf("first LaunchMW: %v", err)
		}
		if err, _ := second.Recv(); err == nil {
			t.Error("concurrent second LaunchMW accepted")
		}
		if len(s.MWDaemons()) != mwNodes {
			t.Errorf("MW daemons = %d, want %d", len(s.MWDaemons()), mwNodes)
		}
	})
}
