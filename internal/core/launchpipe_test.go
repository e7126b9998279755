package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/engine"
	"launchmon/internal/lmonp"
	"launchmon/internal/proctab"
	"launchmon/internal/rm"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// Cut-through launch-pipeline regressions: the e-mark partial order, the
// every-rank-validates-before-DaemonsSpawned invariant, byte-identical
// tables under both seed pipelines, and mid-stream fault surfacing.

// assertLaunchChains checks tl against the back-end launch's two chains.
func assertLaunchChains(t *testing.T, label string, tl engine.Timeline) {
	t.Helper()
	if err := tl.CheckChains(engine.EngineChain, engine.HandshakeChain); err != nil {
		t.Errorf("%s: %v", label, err)
	}
}

// launchPipeShapes are the tree shapes of the regression sweep: a lone
// master, one more daemon than the fanout (a two-level tree with a
// single grandchild), and a prime count that fills levels unevenly.
var launchPipeShapes = []struct{ nodes, fanout int }{
	{1, 4}, {5, 4}, {7, 4},
}

func TestLaunchPipelineMarksMonotone(t *testing.T) {
	for _, shape := range launchPipeShapes {
		t.Run(fmt.Sprintf("K%d_f%d", shape.nodes, shape.fanout), func(t *testing.T) {
			sim, cl, _ := rig(t, shape.nodes)
			cl.Register("lp_be", func(p *cluster.Proc) {
				be, err := BEInit(p)
				if err != nil {
					t.Errorf("BEInit: %v", err)
					return
				}
				be.Finalize()
			})
			runFE(t, sim, cl, func(p *cluster.Proc) {
				s, err := LaunchAndSpawn(p, Options{
					Job:        rm.JobSpec{Exe: "app", Nodes: shape.nodes, TasksPerNode: 4},
					Daemon:     rm.DaemonSpec{Exe: "lp_be"},
					ICCLFanout: shape.fanout,
				})
				if err != nil {
					t.Error(err)
					return
				}
				assertLaunchChains(t, fmt.Sprintf("K=%d", shape.nodes), s.Timeline)
				// The overlap marks of the pipeline are present too.
				if _, ok := s.Timeline.Get(engine.MarkSeedFwd); !ok {
					t.Error("seed_first_forward mark missing")
				}
				if _, ok := s.Timeline.Get(engine.MarkSeedValid); !ok {
					t.Error("master seed_validated mark missing from merged timeline")
				}
			})
		})
	}
}

// TestDaemonsSpawnedAfterEveryRankValidates pins the pipeline's safety
// half: however aggressively phases overlap, the ready message (e10, and
// with it the EvDaemonsSpawned transition) must not beat any rank's
// assembler validation.
func TestDaemonsSpawnedAfterEveryRankValidates(t *testing.T) {
	for _, shape := range launchPipeShapes {
		t.Run(fmt.Sprintf("K%d_f%d", shape.nodes, shape.fanout), func(t *testing.T) {
			sim, cl, _ := rig(t, shape.nodes)
			var mu sync.Mutex
			validated := map[int]time.Duration{}
			cl.Register("lv_be", func(p *cluster.Proc) {
				be, err := BEInit(p)
				if err != nil {
					t.Errorf("BEInit: %v", err)
					return
				}
				tl := be.timeline()
				at, ok := tl.Get(engine.MarkSeedValid)
				if !ok {
					t.Errorf("rank %d: no seed_validated mark", be.Rank())
				}
				mu.Lock()
				validated[be.Rank()] = at
				mu.Unlock()
				be.Finalize()
			})
			runFE(t, sim, cl, func(p *cluster.Proc) {
				s, err := LaunchAndSpawn(p, Options{
					Job:        rm.JobSpec{Exe: "app", Nodes: shape.nodes, TasksPerNode: 4},
					Daemon:     rm.DaemonSpec{Exe: "lv_be"},
					ICCLFanout: shape.fanout,
				})
				if err != nil {
					t.Error(err)
					return
				}
				ready, ok := s.Timeline.Get(engine.MarkE10)
				if !ok {
					t.Fatal("no e10 mark")
				}
				mu.Lock()
				defer mu.Unlock()
				if len(validated) != shape.nodes {
					t.Fatalf("%d ranks validated, want %d", len(validated), shape.nodes)
				}
				for rank, at := range validated {
					if at > ready {
						t.Errorf("rank %d validated at %v, after the ready message at %v", rank, at, ready)
					}
				}
			})
		})
	}
}

// TestSeedByteIdenticalBothModes launches under each pipeline and checks
// every rank sees the exact bytes the front end holds — its own full copy
// under store-forward, the shared index under cut-through — and that the
// union of the ranks' slices is the front end's table under both.
func TestSeedByteIdenticalBothModes(t *testing.T) {
	for _, mode := range []SeedMode{SeedCutThrough, SeedStoreForward} {
		t.Run(mode.String(), func(t *testing.T) {
			const nodes = 5
			sim, cl, _ := rig(t, nodes)
			cl.Register("bi_be", func(p *cluster.Proc) {
				be, err := BEInit(p)
				if err != nil {
					t.Errorf("BEInit: %v", err)
					return
				}
				h := fnv.New64a()
				h.Write(be.Proctab().Encode())
				h.Write(be.FEData())
				contrib := lmonp.AppendBytes(nil, h.Sum(nil))
				contrib = lmonp.AppendBytes(contrib, be.MyProctab().Encode())
				if err := be.Collective().Gather(contrib); err != nil {
					t.Errorf("rank %d gather: %v", be.Rank(), err)
				}
				be.Finalize()
			})
			runFE(t, sim, cl, func(p *cluster.Proc) {
				s, err := LaunchAndSpawn(p, Options{
					Job:        rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: 8},
					Daemon:     rm.DaemonSpec{Exe: "bi_be"},
					FEData:     []byte("seed-fedata"),
					ICCLFanout: 2,
					SeedMode:   mode,
					// Small chunks so the stream is genuinely multi-chunk.
					ProctabChunkBytes: 256,
				})
				if err != nil {
					t.Error(err)
					return
				}
				want := fnv.New64a()
				want.Write(s.Proctab().Encode())
				want.Write([]byte("seed-fedata"))
				contribs, err := s.Gather()
				if err != nil {
					t.Error(err)
					return
				}
				var union proctab.Table
				for rank, raw := range contribs {
					rd := lmonp.NewReader(raw)
					if h := rd.Bytes(); string(h) != string(want.Sum(nil)) {
						t.Errorf("rank %d table/FEData bytes differ from the front end's", rank)
					}
					slice, err := proctab.Decode(rd.Bytes())
					if err != nil {
						t.Errorf("rank %d slice: %v", rank, err)
					}
					union = append(union, slice...)
				}
				union.SortByRank()
				if !bytes.Equal(union.Encode(), s.Proctab().Encode()) {
					t.Error("union of the rank slices differs from the front end's table")
				}
			})
		})
	}
}

// TestSeedMidStreamFaultSurfaces kills the master daemon's node while the
// launch is in flight: LaunchAndSpawn must return an error carrying the
// severed-link fault (not hang), and the whole simulation must quiesce —
// interior daemons blocked on in-flight seed frames included.
func TestSeedMidStreamFaultSurfaces(t *testing.T) {
	const nodes = 16
	sim, cl, _ := rig(t, nodes)
	masterHost := vtime.NewChan[string](sim)
	cl.Register("mf_be", func(p *cluster.Proc) {
		if p.Env(rm.EnvNodeID) == "0" {
			masterHost.Send(p.Node().Name())
		}
		be, err := BEInit(p)
		if err != nil {
			return
		}
		be.Finalize()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		sim.Go("mid-stream-killer", func() {
			host, ok := masterHost.Recv()
			if !ok {
				return
			}
			// Let the master dial in and the handshake + first chunks land,
			// then fail its node while the tree is still forming.
			sim.Sleep(3 * time.Millisecond)
			if !cl.KillNodeByName(host) {
				t.Errorf("KillNodeByName(%q) found nothing", host)
			}
		})
		_, err := LaunchAndSpawn(p, Options{
			Job:               rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: 32},
			Daemon:            rm.DaemonSpec{Exe: "mf_be"},
			ICCLFanout:        2,
			ProctabChunkBytes: 256,
		})
		if err == nil {
			t.Error("LaunchAndSpawn succeeded despite the master's node dying mid-launch")
			return
		}
		if !errors.Is(err, simnet.ErrPeerDead) {
			t.Errorf("launch error does not wrap the severed-link fault: %v", err)
		}
	})
}

// TestReadyBoundHeadroom: readyBound is at least four times what a pinned
// launch takes from the RM's spawn answer to the master's ready — e6→e10,
// or m6→m10 for a middleware fabric — so no deadline fires in a pinned
// run. The shapes up to K=128 run here: the launch pipeline's (both seed
// modes), the flat trees of the ablations, a middleware pipeline's. The
// other pinned shapes enter as their measured virtual times, which are
// deterministic (DESIGN.md "Deadlines"): every larger cut-through and
// middleware one is ready before the answer, store-forward at K=1024
// takes 26.117 ms, and the RPDTAB ablation's shared-file launch 19.142 ms.
// The seed bytes are taken as zero, which only lowers the bound.
func TestReadyBoundHeadroom(t *testing.T) {
	type shape struct {
		mode                    SeedMode
		mw                      bool
		k, fanout, tasksPerNode int
	}
	type row struct {
		shape
		d time.Duration
	}
	measured := []row{
		{shape{SeedStoreForward, false, 1024, 32, 1}, 26116720 * time.Nanosecond},
		{shape{SeedCutThrough, false, 64, 0, 8}, 19141962 * time.Nanosecond},
	}
	for _, sh := range []shape{
		{SeedStoreForward, false, 8, 4, 1}, {SeedStoreForward, false, 32, 4, 1},
		{SeedStoreForward, false, 64, 32, 1}, {SeedStoreForward, false, 64, 0, 1},
		{SeedStoreForward, false, 128, 0, 1}, {SeedCutThrough, false, 8, 4, 1},
		{SeedCutThrough, false, 64, 0, 8}, {SeedCutThrough, true, 8, 4, 4},
		{SeedCutThrough, true, 64, 32, 16},
	} {
		jobNodes := sh.k
		if sh.mw {
			jobNodes = 4
		}
		sim, cl, _ := rig(t, jobNodes+sh.k)
		registerMortal(cl, "hr_be", "hr_mw")
		runFE(t, sim, cl, func(p *cluster.Proc) {
			opts := Options{
				Job:    rm.JobSpec{Exe: "app", Nodes: jobNodes, TasksPerNode: sh.tasksPerNode},
				Daemon: rm.DaemonSpec{Exe: "hr_be"}, SeedMode: sh.mode,
			}
			if !sh.mw {
				opts.ICCLFanout = sh.fanout
			}
			s, err := LaunchAndSpawn(p, opts)
			if err == nil && sh.mw {
				_, err = s.LaunchMW(MWOptions{Nodes: sh.k, Daemon: rm.DaemonSpec{Exe: "hr_mw"}, ICCLFanout: sh.fanout})
			}
			if err != nil {
				t.Errorf("%+v: %v", sh, err)
				return
			}
			marks := engine.BEMarks
			if sh.mw {
				marks = engine.MWMarks
			}
			answer, _ := s.Timeline.Get(marks.SpawnDone)
			ready, _ := s.Timeline.Get(marks.Ready)
			measured = append(measured, row{sh, ready - answer})
			s.Kill()
		})
	}
	for _, r := range measured {
		if bound := readyBound(r.k, r.fanout, r.mode, 0); bound < 4*r.d {
			t.Errorf("%+v: readyBound %v, less than four times the %v from the answer to ready", r.shape, bound, r.d)
		}
	}
}
