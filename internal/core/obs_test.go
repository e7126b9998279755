package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/engine"
	"launchmon/internal/health"
	"launchmon/internal/rm"
	"launchmon/internal/vtime"
)

// Observability-plane coverage: the metrics harvest and trace export of
// ObsOn sessions, their behavior on torn-down sessions (wrapped terminal
// fault, never a hang), process-kill fault surfacing through adopted
// connections, and Timeline merge determinism. Run with -race: the
// concurrent-session test drives eight obs-on sessions over one mux.

func TestObsMetricsSnapshotEndToEnd(t *testing.T) {
	sim, cl, _ := rig(t, 5)
	cl.Register("obs_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			return
		}
		if err := be.Collective().Gather([]byte("contribution")); err != nil {
			t.Errorf("rank %d gather: %v", be.Rank(), err)
		}
		be.Finalize()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:        rm.JobSpec{Exe: "app", Nodes: 5, TasksPerNode: 2},
			Daemon:     rm.DaemonSpec{Exe: "obs_be"},
			ICCLFanout: 2,
			Obs:        ObsOn,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Gather(); err != nil {
			t.Fatal(err)
		}
		snap, err := s.MetricsSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		// The harvest reached the FE: daemon-side counters are summed
		// across the fabric, gauges keep the fabric-wide peak.
		if got := snap.Counters["seed.fwd.chunks"]; got == 0 {
			t.Error("no seed forwards harvested from the daemons")
		}
		if got := snap.Counters["iccl.tx.frames"]; got == 0 {
			t.Error("no iccl tx frames harvested")
		}
		if got := snap.Gauges["seed.src.bytes"]; got == 0 {
			t.Error("seed source bytes gauge missing")
		}
		if snap.Gauges["fe.table.bytes"] != uint64(s.Proctab().MemBytes()) {
			t.Errorf("fe.table.bytes = %d, want %d", snap.Gauges["fe.table.bytes"], s.Proctab().MemBytes())
		}
		// The FE-side collective counters fired for the gather.
		if snap.Counters["coll.fe.rx.frames"] == 0 {
			t.Error("FE collective rx counter never fired")
		}
		// The busiest seed link cannot beat physics: it carried at least
		// one frame and at most the whole forwarded stream.
		if lm := snap.Gauges["seed.link.bytes.max"]; lm == 0 || lm > snap.Counters["seed.fwd.bytes"] {
			t.Errorf("seed.link.bytes.max = %d, out of range (fwd total %d)", lm, snap.Counters["seed.fwd.bytes"])
		}
	})
}

func TestObsDisabledAccessors(t *testing.T) {
	sim, cl, _ := rig(t, 2)
	cl.Register("off_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			return
		}
		// The plane is off: the FE must not have planted the obs env.
		if v := p.Env(envObs); v != ObsDefault.String() {
			t.Errorf("daemon sees %s=%q with obs off", envObs, v)
		}
		be.Finalize()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: 2, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "off_be"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.MetricsSnapshot(); !errors.Is(err, errObsDisabled) {
			t.Errorf("MetricsSnapshot with obs off: %v", err)
		}
		if err := s.WriteTrace(&bytes.Buffer{}); !errors.Is(err, errObsDisabled) {
			t.Errorf("WriteTrace with obs off: %v", err)
		}
	})
}

func TestObsConcurrentSessionsOverOneMux(t *testing.T) {
	// Eight obs-on sessions in parallel goroutines of one FE process:
	// every registry, recorder and harvest path runs concurrently (the
	// -race assertion), and each session's snapshot and trace stay
	// self-consistent — metrics are per-session, not cross-bled.
	const k, nodesEach, tpn = 8, 2, 1
	sim, cl, _ := rig(t, k*nodesEach)
	cl.Register("obs_cc_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			return
		}
		be.Collective().Gather([]byte(p.Node().Name()))
		be.Finalize()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		sessions := make([]*Session, k)
		errs := make([]error, k)
		wg := vtime.NewWaitGroup(p.Sim())
		wg.Add(k)
		for i := 0; i < k; i++ {
			i := i
			p.Sim().Go(fmt.Sprintf("obs-fe-session-%d", i), func() {
				defer wg.Done()
				s, err := LaunchAndSpawn(p, Options{
					Job:        rm.JobSpec{Exe: fmt.Sprintf("app%d", i), Nodes: nodesEach, TasksPerNode: tpn},
					Daemon:     rm.DaemonSpec{Exe: "obs_cc_be"},
					ICCLFanout: 2,
					Obs:        ObsOn,
				})
				if err != nil {
					errs[i] = err
					return
				}
				if _, err := s.Gather(); err != nil {
					errs[i] = err
					return
				}
				sessions[i] = s
			})
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
		}
		for i, s := range sessions {
			snap, err := s.MetricsSnapshot()
			if err != nil {
				t.Errorf("session %d snapshot: %v", i, err)
				continue
			}
			// Each session harvested exactly its own fabric: one relayed
			// table of nodesEach*tpn tasks, gathered from nodesEach daemons.
			if got := snap.Counters["coll.fe.rx.frames"]; got == 0 {
				t.Errorf("session %d: no FE collective frames counted", i)
			}
			if got := snap.Gauges["fe.table.bytes"]; got != uint64(s.Proctab().MemBytes()) {
				t.Errorf("session %d: fe.table.bytes = %d, want its own table %d",
					i, got, s.Proctab().MemBytes())
			}
			var buf bytes.Buffer
			if err := s.WriteTrace(&buf); err != nil {
				t.Errorf("session %d trace: %v", i, err)
				continue
			}
			var events []map[string]any
			if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
				t.Errorf("session %d trace not a JSON array: %v", i, err)
				continue
			}
			if len(events) == 0 || events[0]["ph"] != "M" {
				t.Errorf("session %d trace missing metadata header", i)
			}
		}
	})
}

func TestObsMetricsSnapshotOnWatchdogTornSession(t *testing.T) {
	// The satellite regression: harvesting metrics on a session the
	// watchdog tore down must return the wrapped terminal fault — not
	// hang on a dead fabric, not return half-harvested numbers.
	const nodes = 4
	sim, cl, _ := rig(t, nodes)
	registerResidentBE(t, cl, "obs_hb_be")
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "obs_hb_be"},
			Health: HealthOptions{Period: 200 * time.Millisecond, Miss: 2},
			Obs:    ObsOn,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Obs works on the live session.
		if _, err := s.MetricsSnapshot(); err != nil {
			t.Fatalf("snapshot on live session: %v", err)
		}
		chans := collectEvents(s, sim)
		p.Sim().Sleep(time.Second)
		victim := s.Daemons()[nodes-1].Host
		if !cl.KillNodeByName(victim) {
			t.Fatalf("KillNodeByName(%q) found nothing", victim)
		}
		if _, ok := chans[health.EvSessionTornDown].Recv(); !ok {
			t.Fatal("no SessionTornDown event")
		}
		_, err = s.MetricsSnapshot()
		if !errors.Is(err, ErrSessionClosed) {
			t.Errorf("snapshot on torn session: %v, want wrapped ErrSessionClosed", err)
		}
		if err == nil || !strings.Contains(err.Error(), "lost") {
			t.Errorf("snapshot error %q does not carry the terminal fault detail", err)
		}
	})
}

func TestKilledEngineSurfacesPeerDeathAndTearsDown(t *testing.T) {
	// The adopted-connection regression: killing the engine *process*
	// (its node stays up, so no node-death signal exists) must sever the
	// engine's FE connection with ErrPeerDead — the watchdog then tears
	// the session down instead of every engine operation hanging forever.
	const nodes = 4
	sim, cl, _ := rig(t, nodes)
	registerResidentBE(t, cl, "obs_ek_be")
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "obs_ek_be"},
		})
		if err != nil {
			t.Fatal(err)
		}
		chans := collectEvents(s, sim)
		p.Sim().Sleep(time.Second)

		eng := p.Node().FindProcByExe(engine.ExeName)
		if eng == nil {
			t.Fatalf("no %s process on the FE node", engine.ExeName)
		}
		eng.Kill()

		if _, ok := chans[health.EvSessionTornDown].Recv(); !ok {
			t.Fatal("no SessionTornDown after engine kill")
		}
		if _, err := s.RecvFromBE(); !errors.Is(err, ErrSessionClosed) ||
			!strings.Contains(err.Error(), "engine connection lost") {
			t.Errorf("RecvFromBE after engine kill: %v, want engine-connection-lost fault", err)
		}
	})
}

func TestTimelineMergeDeterministicAtFanoutPlusOne(t *testing.T) {
	// The merge-determinism regression at the smallest interesting tree
	// (K = fanout+1: one grandchild, so BE, MW and relay marks interleave
	// non-trivially): the merged Timeline must be sorted by (time, name),
	// and two identical runs must produce identical mark sequences.
	const fanout = 2
	const k = fanout + 1
	run := func() []engine.MarkEntry {
		var entries []engine.MarkEntry
		sim, cl, _ := rig(t, 2*k)
		cl.Register("tl_be", func(p *cluster.Proc) {
			if be, err := BEInit(p); err == nil {
				be.Finalize()
			}
		})
		cl.Register("tl_mw", func(p *cluster.Proc) {
			if mw, err := MWInit(p); err == nil {
				mw.Finalize()
			}
		})
		runFE(t, sim, cl, func(p *cluster.Proc) {
			s, err := LaunchAndSpawn(p, Options{
				Job:        rm.JobSpec{Exe: "app", Nodes: k, TasksPerNode: 1},
				Daemon:     rm.DaemonSpec{Exe: "tl_be"},
				ICCLFanout: fanout,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.LaunchMW(MWOptions{
				Nodes: k, Daemon: rm.DaemonSpec{Exe: "tl_mw"}, ICCLFanout: fanout,
			}); err != nil {
				t.Fatal(err)
			}
			entries = append([]engine.MarkEntry(nil), s.Timeline.Entries...)
		})
		return entries
	}

	first := run()
	if len(first) == 0 {
		t.Fatal("no timeline entries")
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.At > b.At || (a.At == b.At && a.Name > b.Name) {
			t.Errorf("entries %d,%d out of (time, name) order: %s@%v then %s@%v",
				i-1, i, a.Name, a.At, b.Name, b.At)
		}
	}
	second := run()
	if len(first) != len(second) {
		t.Fatalf("runs differ: %d vs %d entries", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("entry %d differs between identical runs: %+v vs %+v", i, first[i], second[i])
		}
	}
}
