package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
	"launchmon/internal/rm"
	"launchmon/internal/vtime"
)

// End-to-end tests of the collective tool-data plane: FE-side
// Session.Broadcast/Scatter/Gather/Reduce against the mirrored
// BE.Collective handle, over real sessions.

func TestCollectiveRoundTripAllOps(t *testing.T) {
	for _, tc := range []struct{ nodes, fanout int }{
		{1, 0},  // single daemon, flat
		{5, 4},  // K = fanout+1
		{8, 0},  // flat tree
		{13, 3}, // prime K
	} {
		t.Run(fmt.Sprintf("n%d_f%d", tc.nodes, tc.fanout), func(t *testing.T) {
			sim, cl, _ := rig(t, tc.nodes)
			n := tc.nodes
			bcast := bytes.Repeat([]byte("payload-"), 64) // 512 B, several 128 B chunks
			cl.Register("coll_be", func(p *cluster.Proc) {
				be, err := BEInit(p)
				if err != nil {
					t.Errorf("BEInit: %v", err)
					return
				}
				c := be.Collective()
				got, err := c.Broadcast()
				if err != nil {
					t.Errorf("rank %d broadcast: %v", be.Rank(), err)
					return
				}
				if !bytes.Equal(got, bcast) {
					t.Errorf("rank %d broadcast got %d bytes", be.Rank(), len(got))
					return
				}
				part, err := c.Scatter()
				if err != nil {
					t.Errorf("rank %d scatter: %v", be.Rank(), err)
					return
				}
				want := fmt.Sprintf("part-for-%d", be.Rank())
				if string(part) != want {
					t.Errorf("rank %d scatter got %q", be.Rank(), part)
					return
				}
				if err := c.Gather([]byte(fmt.Sprintf("from-%d", be.Rank()))); err != nil {
					t.Errorf("rank %d gather: %v", be.Rank(), err)
					return
				}
				one := lmonp.AppendUint64(nil, 1)
				if err := c.Reduce(one, "sum"); err != nil {
					t.Errorf("rank %d reduce: %v", be.Rank(), err)
					return
				}
				be.Finalize()
			})
			runFE(t, sim, cl, func(p *cluster.Proc) {
				sess, err := LaunchAndSpawn(p, Options{
					Job:            rm.JobSpec{Exe: "app", Nodes: n, TasksPerNode: 1},
					Daemon:         rm.DaemonSpec{Exe: "coll_be"},
					ICCLFanout:     tc.fanout,
					CollChunkBytes: 128,
				})
				if err != nil {
					t.Error(err)
					return
				}
				if err := sess.Broadcast(bcast); err != nil {
					t.Errorf("broadcast: %v", err)
					return
				}
				parts := make([][]byte, n)
				for rk := range parts {
					parts[rk] = []byte(fmt.Sprintf("part-for-%d", rk))
				}
				if err := sess.Scatter(parts); err != nil {
					t.Errorf("scatter: %v", err)
					return
				}
				all, err := sess.Gather()
				if err != nil {
					t.Errorf("gather: %v", err)
					return
				}
				for rk, blob := range all {
					if string(blob) != fmt.Sprintf("from-%d", rk) {
						t.Errorf("gather slot %d = %q", rk, blob)
					}
				}
				sum, err := sess.Reduce()
				if err != nil {
					t.Errorf("reduce: %v", err)
					return
				}
				rd := lmonp.NewReader(sum)
				if v := rd.Uint64(); rd.Err() != nil || v != uint64(n) {
					t.Errorf("reduce sum = %d (%v), want %d", v, rd.Err(), n)
				}
				sess.Kill()
			})
		})
	}
}

func TestCollectiveLargePayloadChunks(t *testing.T) {
	// A gather whose per-daemon contribution exceeds the chunk size must
	// still arrive intact (oversized single entries travel whole).
	sim, cl, _ := rig(t, 4)
	big := bytes.Repeat([]byte{0xAB}, 300<<10) // 300 KiB >> 64 KiB default chunks
	cl.Register("big_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			return
		}
		blob := append([]byte{byte(be.Rank())}, big...)
		if err := be.Collective().Gather(blob); err != nil {
			t.Errorf("rank %d: %v", be.Rank(), err)
		}
		be.Finalize()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		sess, err := LaunchAndSpawn(p, Options{
			Job:        rm.JobSpec{Exe: "app", Nodes: 4, TasksPerNode: 1},
			Daemon:     rm.DaemonSpec{Exe: "big_be"},
			ICCLFanout: 2,
		})
		if err != nil {
			t.Error(err)
			return
		}
		all, err := sess.Gather()
		if err != nil {
			t.Error(err)
			return
		}
		for rk, blob := range all {
			if len(blob) != len(big)+1 || blob[0] != byte(rk) {
				t.Errorf("rank %d blob: %d bytes", rk, len(blob))
			}
		}
		sess.Kill()
	})
}

func TestScatterWrongPartCountRejected(t *testing.T) {
	sim, cl, _ := rig(t, 2)
	cl.Register("sc_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			return
		}
		if _, err := be.Collective().Scatter(); err != nil {
			return
		}
		be.Finalize()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		sess, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: 2, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "sc_be"},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := sess.Scatter([][]byte{[]byte("only-one")}); err == nil {
			t.Error("scatter with one part for two daemons accepted")
		}
		// Recover so the daemons' pending Scatter completes, then end.
		if err := sess.Scatter([][]byte{{1}, {2}}); err != nil {
			t.Error(err)
		}
		sess.Kill()
	})
}

// TestOversizedToolPayloadRejectedAtSend is the regression test for the
// encode-time size guard: a tool payload whose combined sections exceed
// lmonp.MaxPayload must fail at the sender with a sized error, not as a
// truncated read on the peer.
func TestOversizedToolPayloadRejectedAtSend(t *testing.T) {
	sim, cl, _ := rig(t, 2)
	cl.Register("ok_be", func(p *cluster.Proc) {
		if _, err := BEInit(p); err == nil {
			vtime.NewChan[int](p.Sim()).Recv() // park; the kill reaps us
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
		huge := make([]byte, lmonp.MaxPayload+1)
		err = sess.SendToBE(huge)
		if !errors.Is(err, lmonp.ErrTooLarge) {
			t.Errorf("SendToBE(%d bytes): %v", len(huge), err)
		}
		if err != nil && !strings.Contains(err.Error(), fmt.Sprint(len(huge))) {
			t.Errorf("oversize error does not name the size: %v", err)
		}
		sess.Kill()
	})
}

// TestGatherSurfacesTeardownDetail is the KillNode-mid-gather regression:
// a collective receive on a session the watchdog tears down must wrap the
// terminal health event's detail (which daemon died), not return a bare
// ErrSessionClosed.
func TestGatherSurfacesTeardownDetail(t *testing.T) {
	const n = 6
	sim, cl, _ := rig(t, n)
	cl.Register("stuck_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			return
		}
		if be.Rank() == 3 {
			// Rank 3 never contributes: the gather stalls until its node is
			// killed. Park; the node kill reaps us.
			vtime.NewChan[int](p.Sim()).Recv()
			return
		}
		// Everyone else contributes, then parks (errors expected once the
		// session dies under them).
		be.Collective().Gather([]byte("x"))
		vtime.NewChan[int](p.Sim()).Recv()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		sess, err := LaunchAndSpawn(p, Options{
			Job:        rm.JobSpec{Exe: "app", Nodes: n, TasksPerNode: 1},
			Daemon:     rm.DaemonSpec{Exe: "stuck_be"},
			ICCLFanout: 2,
			Health:     HealthOptions{Period: 200 * time.Millisecond, Miss: 2},
		})
		if err != nil {
			t.Error(err)
			return
		}
		victimHost := ""
		for _, d := range sess.Daemons() {
			if d.Rank == 3 {
				victimHost = d.Host
			}
		}
		p.Sim().Sleep(time.Second) // session reaches steady state
		sim.Go("killer", func() {
			p.Sim().Sleep(500 * time.Millisecond)
			cl.KillNodeByName(victimHost)
		})
		_, err = sess.Gather() // stalls on rank 3, then dies with the session
		if err == nil {
			t.Error("gather on torn-down session succeeded")
			return
		}
		if !errors.Is(err, ErrSessionClosed) {
			t.Errorf("teardown error does not wrap ErrSessionClosed: %v", err)
		}
		if !strings.Contains(err.Error(), "daemon rank 3 lost") {
			t.Errorf("teardown error does not name the lost daemon: %v", err)
		}
		// RecvFromBE after the fact reports the same cause.
		if _, err := sess.RecvFromBE(); err == nil || !strings.Contains(err.Error(), "daemon rank 3 lost") {
			t.Errorf("RecvFromBE after teardown: %v", err)
		}
	})
}

// TestRecvFromBEPlainClosedAfterKill pins the contract that a
// tool-initiated Kill keeps returning the bare sentinel (no fault detail
// is invented for clean teardowns).
func TestRecvFromBEPlainClosedAfterKill(t *testing.T) {
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
		if _, err := sess.Gather(); err != ErrSessionClosed {
			t.Errorf("Gather on killed session: %v", err)
		}
		if err := sess.Broadcast(nil); err != ErrSessionClosed {
			t.Errorf("Broadcast on killed session: %v", err)
		}
	})
}

func TestCollectiveOrderDivergenceDetected(t *testing.T) {
	// FE gathers while the daemons broadcast: the lockstep tag/op check
	// must fail loudly instead of cross-wiring streams.
	sim, cl, _ := rig(t, 2)
	beErr := make(chan error, 2)
	cl.Register("div_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			return
		}
		// Daemons gather — but the FE broadcasts.
		beErr <- be.Collective().Gather([]byte("x"))
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		sess, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: 2, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "div_be"},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := sess.Broadcast([]byte("hello")); err != nil {
			t.Error(err)
			return
		}
		// The FE's broadcast stream reaches the master while it expects
		// gather traffic on its down hook — the master errors out; the FE
		// must observe the gather failing (daemons gathered, so frames of
		// the wrong op/tag reach the FE queue).
		if _, err := sess.Gather(); err == nil {
			t.Error("diverged collective order went undetected")
		}
		sess.Kill()
	})
	close(beErr)
}

func TestReduceCustomFilterAcrossSession(t *testing.T) {
	coll.RegisterFilter("test-min-u64", func(string) (coll.Combine, error) {
		return func(acc, next []byte) ([]byte, error) {
			if acc == nil {
				return append([]byte(nil), next...), nil
			}
			a := lmonp.NewReader(acc).Uint64()
			rd := lmonp.NewReader(next)
			b := rd.Uint64()
			if rd.Err() != nil {
				return nil, rd.Err()
			}
			if b < a {
				return append([]byte(nil), next...), nil
			}
			return acc, nil
		}, nil
	})
	sim, cl, _ := rig(t, 5)
	cl.Register("min_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			return
		}
		v := lmonp.AppendUint64(nil, uint64(100+be.Rank()*10))
		if err := be.Collective().Reduce(v, "test-min-u64"); err != nil {
			t.Errorf("rank %d: %v", be.Rank(), err)
		}
		be.Finalize()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		sess, err := LaunchAndSpawn(p, Options{
			Job:        rm.JobSpec{Exe: "app", Nodes: 5, TasksPerNode: 1},
			Daemon:     rm.DaemonSpec{Exe: "min_be"},
			ICCLFanout: 2,
		})
		if err != nil {
			t.Error(err)
			return
		}
		out, err := sess.Reduce()
		if err != nil {
			t.Error(err)
			return
		}
		if v := lmonp.NewReader(out).Uint64(); v != 100 {
			t.Errorf("min = %d, want 100", v)
		}
		sess.Kill()
	})
}

// TestMalformedCollectiveFrameFailsCollectives pins the sorter's contract
// at both ends of a master connection: a collective frame it cannot decode
// names no trustworthy tag, so it must fail the pending lockstep gather
// and every tagged stream — pending or opened later — with an error
// naming the cause, not vanish and leave them waiting for an end marker
// that never comes. Tool data keeps flowing.
func TestMalformedCollectiveFrameFailsCollectives(t *testing.T) {
	sim := vtime.New()
	var buf bytes.Buffer
	s := &Session{state: stReady}
	s.be = feFabric{s: s, prof: beFabric, st: fabUp, conn: lmonp.NewConn(&buf), rx: newRxStreams(sim, "master daemon")}
	tag := s.AllocTag()
	var gatherErr, tagErr, lateErr error
	var usr []byte
	sim.Go("fe-gather", func() { _, gatherErr = s.Gather() })
	sim.Go("fe-reduce-tag", func() { _, tagErr = s.ReduceTag(tag) })
	sim.Go("inject", func() {
		sim.Sleep(time.Millisecond)
		// What onMaster hands the sorter when the master sends garbage.
		if !s.be.rx.sort(&lmonp.Msg{Type: lmonp.TypeCollChunk, Payload: []byte{0xff}}) {
			t.Error("sorter disowned a collective chunk")
		}
		s.be.rx.sort(&lmonp.Msg{Type: lmonp.TypeUsrData, UsrData: []byte("still here")})
		_, lateErr = s.GatherTag(s.AllocTag())
		usr, _ = s.RecvFromBE()
	})
	sim.Run()
	for name, err := range map[string]error{"gather": gatherErr, "tagged reduce": tagErr, "late tagged gather": lateErr} {
		if err == nil || !strings.Contains(err.Error(), "malformed collective frame from master daemon") {
			t.Errorf("%s after malformed frame: %v", name, err)
		}
	}
	if string(usr) != "still here" {
		t.Errorf("tool data after malformed frame: %q", usr)
	}
}
