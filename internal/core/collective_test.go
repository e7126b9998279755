package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/iccl"
	"launchmon/internal/lmonp"
	"launchmon/internal/rm"
	"launchmon/internal/vtime"
)

// End-to-end tests of the collective tool-data plane: FE-side
// Session.Broadcast/Gather/Reduce against the mirrored
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

// TestBEBarrierAndScatterOnDemuxedTree covers the daemon API's own
// collectives (BackEnd.Barrier and Scatter, iccl.Comm's) at K = 7, fanout
// 2, on both sides of the switch a plane operation makes: once while the
// daemons still read their tree links directly, and again after a
// Collective().AllGather has handed the links to their demuxes. Every rank
// receives parts[rank], and the master refuses a part set of the wrong
// size before anything goes down the tree.
func TestBEBarrierAndScatterOnDemuxedTree(t *testing.T) {
	const k = 7
	sim, cl, _ := rig(t, k)
	cl.Register("api_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			t.Error(err)
			return
		}
		var failed []string
		check := func(phase string) {
			if err := be.Barrier(); err != nil {
				failed = append(failed, fmt.Sprintf("%s barrier: %v", phase, err))
				return
			}
			var parts [][]byte
			if be.AmIMaster() {
				if _, err := be.Scatter(make([][]byte, k-1)); err == nil {
					failed = append(failed, phase+" scatter of 6 parts accepted")
				}
				for rk := 0; rk < k; rk++ {
					parts = append(parts, []byte(fmt.Sprintf("%s part %d", phase, rk)))
				}
			}
			part, err := be.Scatter(parts)
			if want := fmt.Sprintf("%s part %d", phase, be.Rank()); err != nil || string(part) != want {
				failed = append(failed, fmt.Sprintf("%s scatter: %q, %v; want %q", phase, part, err, want))
			}
		}
		check("direct")
		if _, err := be.Collective().AllGather(nil); err != nil {
			t.Errorf("rank %d plane allgather: %v", be.Rank(), err)
			return
		}
		check("demuxed")
		if err := be.Collective().Gather([]byte(strings.Join(failed, "; "))); err != nil {
			t.Errorf("rank %d gather: %v", be.Rank(), err)
			return
		}
		be.Finalize()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		sess, err := LaunchAndSpawn(p, Options{
			Job:        rm.JobSpec{Exe: "app", Nodes: k, TasksPerNode: 1},
			Daemon:     rm.DaemonSpec{Exe: "api_be"},
			ICCLFanout: 2,
		})
		if err != nil {
			t.Error(err)
			return
		}
		all, err := sess.Gather()
		if err != nil {
			t.Errorf("gather: %v", err)
		}
		for rk, blob := range all {
			if len(blob) > 0 {
				t.Errorf("rank %d: %s", rk, blob)
			}
		}
		sess.Kill()
	})
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

// TestScatterWrongPartCountRejected: the master daemon's BackEnd.Scatter
// refuses a part set that is not one part per daemon before anything goes
// down the tree, and the scatter that follows delivers every rank its part.
func TestScatterWrongPartCountRejected(t *testing.T) {
	sim, cl, _ := rig(t, 2)
	cl.Register("sc_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			return
		}
		var parts [][]byte
		report := ""
		if be.AmIMaster() {
			if _, err := be.Scatter([][]byte{[]byte("only-one")}); err == nil {
				report = "scatter with one part for two daemons accepted; "
			}
			parts = [][]byte{{1}, {2}}
		}
		if part, err := be.Scatter(parts); err != nil || len(part) != 1 || part[0] != byte(be.Rank()+1) {
			report += fmt.Sprintf("rank %d got part %v, %v", be.Rank(), part, err)
		}
		if err := be.Collective().Gather([]byte(report)); err != nil {
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
		all, err := sess.Gather()
		if err != nil {
			t.Error(err)
		}
		for _, report := range all {
			if len(report) > 0 {
				t.Error(string(report))
			}
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
// terminal fault's detail (which daemon died), not return a bare
// ErrSessionClosed — whether the lost daemon is one the gather waits on
// or the master, the front end's end of the FE hop.
func TestGatherSurfacesTeardownDetail(t *testing.T) {
	const n = 6
	for _, tc := range []struct {
		name   string
		victim int    // the rank whose node is killed mid-gather
		detail string // what the front end's error names
	}{
		{"stalled_rank", 3, "daemon rank 3 lost"},
		{"master", 0, "master daemon connection severed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, cl, _ := rig(t, n)
			cl.Register("stuck_be", func(p *cluster.Proc) {
				be, err := BEInit(p)
				if err != nil {
					return
				}
				if be.Rank() == 3 {
					// Rank 3 never contributes: the gather stalls until a node
					// is killed. Park; the kill reaps us.
					vtime.NewChan[int](p.Sim()).Recv()
					return
				}
				// Everyone else contributes, then parks (errors expected once
				// the session dies under them).
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
					if d.Rank == tc.victim {
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
				if !strings.Contains(err.Error(), tc.detail) {
					t.Errorf("teardown error does not name %q: %v", tc.detail, err)
				}
				// RecvFromBE after the fact reports the same cause.
				if _, err := sess.RecvFromBE(); err == nil || !strings.Contains(err.Error(), tc.detail) {
					t.Errorf("RecvFromBE after teardown: %v", err)
				}
			})
		})
	}
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
		_, err = sess.Gather()
		if err == nil || !strings.Contains(err.Error(), "front end of the BE fabric") ||
			!strings.Contains(err.Error(), "collective order diverged") {
			t.Errorf("diverged collective order: %v, want an error naming the front end", err)
		}
		sess.Kill()
	})
	close(beErr)
}

// TestMalformedCollectiveFrameFailsCollectives pins the sorter's contract
// at both ends of a master connection: a collective frame it cannot decode
// names no trustworthy tag, so it must fail the running lockstep operation
// and every tagged stream — running or started later — with an error naming
// the cause, not vanish and leave them waiting for an end marker that never
// comes. Tool data keeps flowing. At the front end the running operations
// are a Gather and a ReduceTag of the front end's plane; at the master, a
// Broadcast and a BroadcastTag of the root plane of a one-daemon tree. The
// garbage — an undecodable chunk, or a stream's last chunk cut short in the
// end marker it carries or followed by a stray byte — arrives as the connection's handler would hand it
// over: from a scheduler callback.
func TestMalformedCollectiveFrameFailsCollectives(t *testing.T) {
	payload, body := coll.Merged(coll.RawFrames(coll.OpBroadcast, 1, "", []byte("x"), 0), coll.DefaultWindow)[0].EncodeMsg()
	for _, tc := range []struct {
		name, peer string
		start      func(t *testing.T, sim *vtime.Sim, e *malformedEnd)
		garbage    lmonp.Msg
	}{
		{"front_end", "master daemon", startFEEnd, lmonp.Msg{Type: lmonp.TypeCollChunk, Payload: []byte{0xff}}},
		{"master", "front end", startMasterEnd, lmonp.Msg{Type: lmonp.TypeCollChunk, Payload: []byte{0xff}}},
		{"front_end/last_chunk", "master daemon", startFEEnd, lmonp.Msg{Type: lmonp.TypeCollEnd, Payload: payload[:len(payload)-1], UsrData: body}},
		{"master/last_chunk", "front end", startMasterEnd, lmonp.Msg{Type: lmonp.TypeCollEnd, Payload: payload[:len(payload)-1], UsrData: body}},
		{"front_end/long_last_chunk", "master daemon", startFEEnd, lmonp.Msg{Type: lmonp.TypeCollEnd, Payload: append(payload[:len(payload):len(payload)], 0), UsrData: body}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := vtime.New()
			e := &malformedEnd{}
			tc.start(t, sim, e)
			var lateErr error
			var usr []byte
			sim.After(time.Second, func() {
				// What the connection's handler hands the sorter when its peer
				// sends garbage.
				if !e.rx.sort(&tc.garbage) {
					t.Error("sorter disowned a collective frame")
				}
				e.rx.sort(&lmonp.Msg{Type: lmonp.TypeUsrData, UsrData: []byte("still here")})
			})
			sim.Go("late", func() {
				sim.Sleep(2 * time.Second)
				lateErr = e.late()
				usr, _ = e.recvUsr()
			})
			sim.Run()
			for name, err := range map[string]error{"running lockstep operation": e.lockstep, "running tagged operation": e.tagged, "late tagged operation": lateErr} {
				if err == nil || !strings.Contains(err.Error(), "malformed collective frame from "+tc.peer) {
					t.Errorf("%s after malformed frame: %v", name, err)
				}
			}
			if string(usr) != "still here" {
				t.Errorf("tool data after malformed frame: %q", usr)
			}
		})
	}
}

// malformedEnd is one end of a master connection under
// TestMalformedCollectiveFrameFailsCollectives: its sorter, what its running
// operations returned, and how to start a late one and receive tool data.
type malformedEnd struct {
	rx               *rxStreams
	lockstep, tagged error
	late             func() error
	recvUsr          func() ([]byte, error)
}

func startFEEnd(t *testing.T, sim *vtime.Sim, e *malformedEnd) {
	cl, err := cluster.New(sim, cluster.Options{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim.Go("boot", func() {
		cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "fe", Main: func(p *cluster.Proc) {
			s := &Session{p: p, state: stReady}
			pl := iccl.NewFrontEnd(p, "front end of the BE fabric")
			e.rx = newRxStreams(sim, "master daemon", pl, nil)
			s.be = feFabric{s: s, prof: beFabric, st: fabUp, conn: lmonp.NewConn(sink{}), rx: e.rx, pl: pl}
			tag := s.AllocTag()
			sim.Go("fe-gather", func() { _, e.lockstep = s.Gather() })
			sim.Go("fe-reduce-tag", func() { _, e.tagged = s.ReduceTag(tag) })
			e.late = func() error { _, err := s.GatherTag(s.AllocTag()); return err }
			e.recvUsr = s.RecvFromBE
		}})
	})
}

// sink is an lmonp endpoint that takes what is sent and delivers nothing.
type sink struct{}

func (sink) Send([]byte) error                  { return nil }
func (sink) RecvMessage() ([]byte, error)       { return nil, io.EOF }
func (sink) Handle(func(msg []byte, err error)) {}
func (sink) Unhandle()                          {}
func (sink) Close() error                       { return nil }
func (sink) Sever()                             {}

func startMasterEnd(t *testing.T, sim *vtime.Sim, e *malformedEnd) {
	cl, err := cluster.New(sim, cluster.Options{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim.Go("boot", func() {
		cl.Node(0).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
			comm, err := iccl.Bootstrap(p, iccl.Config{Size: 1, Nodelist: []string{cl.Node(0).Name()}, Port: 50021})
			if err != nil {
				t.Error(err)
				return
			}
			pl := comm.NewPlane(0, 0, func(coll.Frame) error { return nil }, nil)
			e.rx = newRxStreams(sim, "front end", pl, nil)
			sim.Go("root-broadcast", func() { _, e.lockstep = pl.Broadcast() })
			sim.Go("root-broadcast-tag", func() { _, e.tagged = pl.BroadcastTag(coll.MinUserTag) })
			e.late = func() error { _, err := pl.BroadcastTag(coll.MinUserTag + 1); return err }
			e.recvUsr = e.rx.recvUsr
		}})
	})
}

// TestTreeReadChargeRule pins where a Comm collective's reader time is
// charged (DESIGN.md "Simulator cost model"): until the first plane
// operation demultiplexes a daemon's tree links, a collective's walk charges
// iccl.PerMsgCost as it reads, one reader a daemon, so the master of a flat
// fabric reads its children's barrier frames one after another; after it,
// each link's SerialFramer charges its own frames, one reader a link, and
// the children's frames are charged side by side. The ready gather, Figure
// 3's flat-tree rows and the BE API's Comm collectives run under the first
// rule; a change that moves any of them to the second moves these instants.
func TestTreeReadChargeRule(t *testing.T) {
	for _, c := range []struct {
		fanout        int
		before, after time.Duration
	}{
		{0, 5010012, 360012}, // flat: 32 children's frames one after another, then side by side
		{4, 2430036, 1080036},
	} {
		sim, cl, _ := rig(t, 33)
		var before, after time.Duration
		cl.Register("tool_be", func(p *cluster.Proc) {
			be, err := BEInit(p)
			if err != nil {
				t.Error(err)
				return
			}
			defer be.Finalize()
			// The second of two barriers, so every daemon enters it as the
			// first one's release reaches it.
			barrier := func() time.Duration {
				var t0 time.Duration
				for i := 0; i < 2; i++ {
					t0 = p.Sim().Now()
					if err := be.Barrier(); err != nil {
						t.Error(err)
					}
				}
				return p.Sim().Now() - t0
			}
			d := barrier()
			if _, err := be.Collective().AllGather(nil); err != nil {
				t.Error(err)
			}
			if d2 := barrier(); be.AmIMaster() {
				before, after = d, d2
			}
		})
		runFE(t, sim, cl, func(p *cluster.Proc) {
			if _, err := LaunchAndSpawn(p, Options{
				Job:        rm.JobSpec{Exe: "app", Nodes: 33, TasksPerNode: 1},
				Daemon:     rm.DaemonSpec{Exe: "tool_be"},
				ICCLFanout: c.fanout,
			}); err != nil {
				t.Error(err)
			}
		})
		if before != c.before || after != c.after {
			t.Errorf("fanout %d: the master's barrier takes %v before the first plane operation and %v after, want %v and %v",
				c.fanout, before, after, c.before, c.after)
		}
	}
}
