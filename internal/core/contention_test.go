package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/iccl"
	"launchmon/internal/rm"
	"launchmon/internal/vtime"
)

// Contention battery: concurrent tagged collectives multiplexing one
// session (the plane-v2 headline), the new tree primitives on both
// fabrics, mid-collective Detach/kill fault surfacing per tag, and the
// CollWindow flow-control knob end to end.

func sumU64(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

// TestConcurrentTaggedCollectivesBothFabrics drives four collectives from
// 4 "tool" goroutines over one session, all in flight at once: three
// tagged ones on the BE fabric and the MW fabric's MWGather. BE daemons
// mirror each stream from their own per-op goroutines; the per-tag demux
// on every hop (FE reader, master FE router, tree-link routers) must keep
// the BE streams apart, and the MW fabric's gather must not wait on them.
func TestConcurrentTaggedCollectivesBothFabrics(t *testing.T) {
	const beNodes, mwNodes = 13, 3
	sim, cl, _ := rig(t, beNodes+mwNodes)

	base := coll.MinUserTag
	beGather, beBcast, beReduce := base, base+1, base+2
	bcast := bytes.Repeat([]byte("tagged-bcast-"), 40) // 520 B, several chunks at 128

	daemonOps := func(p *cluster.Proc, dc *iccl.Plane, rank int) error {
		done := vtime.NewChan[error](p.Sim())
		p.Sim().Go(fmt.Sprintf("tool-g-%d", rank), func() {
			done.Send(dc.GatherTag(beGather, []byte{byte(rank)}))
		})
		p.Sim().Go(fmt.Sprintf("tool-b-%d", rank), func() {
			got, err := dc.BroadcastTag(beBcast)
			if err == nil && !bytes.Equal(got, bcast) {
				err = fmt.Errorf("rank %d broadcast got %d bytes", rank, len(got))
			}
			done.Send(err)
		})
		p.Sim().Go(fmt.Sprintf("tool-r-%d", rank), func() {
			done.Send(dc.ReduceTag(beReduce, sumU64(uint64(rank+1)), "sum"))
		})
		for i := 0; i < 3; i++ {
			err, ok := done.Recv()
			if !ok {
				return fmt.Errorf("daemon op queue closed")
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	cl.Register("cont_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			t.Errorf("BEInit: %v", err)
			return
		}
		if err := daemonOps(p, be.Collective(), be.Rank()); err != nil {
			t.Errorf("BE rank %d: %v", be.Rank(), err)
			return
		}
		be.Finalize()
	})
	cl.Register("cont_mw", func(p *cluster.Proc) {
		mw, err := MWInit(p)
		if err != nil {
			t.Errorf("MWInit: %v", err)
			return
		}
		if err := mw.Collective().Gather([]byte{byte(mw.Rank())}); err != nil {
			t.Errorf("MW rank %d: %v", mw.Rank(), err)
			return
		}
		mw.Finalize()
	})

	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:            rm.JobSpec{Exe: "app", Nodes: beNodes, TasksPerNode: 1},
			Daemon:         rm.DaemonSpec{Exe: "cont_be"},
			ICCLFanout:     3,
			CollChunkBytes: 128,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := s.LaunchMW(MWOptions{Nodes: mwNodes, Daemon: rm.DaemonSpec{Exe: "cont_mw"}}); err != nil {
			t.Error(err)
			return
		}
		checkGather := func(all [][]byte, err error, n int) error {
			if err != nil {
				return err
			}
			if len(all) != n {
				return fmt.Errorf("gathered %d of %d", len(all), n)
			}
			for rk, b := range all {
				if len(b) != 1 || b[0] != byte(rk) {
					return fmt.Errorf("rank %d slot holds %v", rk, b)
				}
			}
			return nil
		}

		// Four tools: three BE tagged streams and the MW gather.
		done := vtime.NewChan[error](sim)
		sim.Go("tool-0", func() {
			all, err := s.GatherTag(beGather)
			done.Send(checkGather(all, err, beNodes))
		})
		sim.Go("tool-1", func() { done.Send(s.BroadcastTag(beBcast, bcast)) })
		sim.Go("tool-2", func() {
			out, err := s.ReduceTag(beReduce)
			if err == nil && binary.BigEndian.Uint64(out) != beNodes*(beNodes+1)/2 {
				err = fmt.Errorf("be sum %d", binary.BigEndian.Uint64(out))
			}
			done.Send(err)
		})
		sim.Go("tool-3", func() {
			all, err := s.MWGather()
			done.Send(checkGather(all, err, mwNodes))
		})
		for i := 0; i < 4; i++ {
			err, ok := done.Recv()
			if !ok {
				t.Error("tool queue closed")
				return
			}
			if err != nil {
				t.Error(err)
			}
		}
	})
}

// TestDaemonTreePrimitivesBothFabrics exercises AllGather and AllReduce —
// the plane-v2 primitives that never involve the front end —
// on the BE and MW fabrics of one session, then reports each daemon's
// verdict through a plain gather.
func TestDaemonTreePrimitivesBothFabrics(t *testing.T) {
	const beNodes, mwNodes = 5, 3
	sim, cl, _ := rig(t, beNodes+mwNodes)

	primitives := func(dc *iccl.Plane, rank, size int) error {
		all, err := dc.AllGather([]byte{byte(rank)})
		if err != nil {
			return fmt.Errorf("allgather: %w", err)
		}
		if len(all) != size {
			return fmt.Errorf("allgather %d of %d", len(all), size)
		}
		for src, b := range all {
			if len(b) != 1 || b[0] != byte(src) {
				return fmt.Errorf("allgather slot %d holds %v", src, b)
			}
		}
		out, err := dc.AllReduce(sumU64(uint64(rank+1)), "sum")
		if err != nil {
			return fmt.Errorf("allreduce: %w", err)
		}
		if want := uint64(size) * uint64(size+1) / 2; binary.BigEndian.Uint64(out) != want {
			return fmt.Errorf("allreduce sum %d, want %d", binary.BigEndian.Uint64(out), want)
		}
		return nil
	}
	cl.Register("prim_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			t.Errorf("BEInit: %v", err)
			return
		}
		verdict := []byte("ok")
		if err := primitives(be.Collective(), be.Rank(), be.Size()); err != nil {
			verdict = []byte(err.Error())
		}
		if err := be.Collective().Gather(verdict); err != nil {
			t.Errorf("BE rank %d verdict gather: %v", be.Rank(), err)
		}
		be.Finalize()
	})
	cl.Register("prim_mw", func(p *cluster.Proc) {
		mw, err := MWInit(p)
		if err != nil {
			t.Errorf("MWInit: %v", err)
			return
		}
		verdict := []byte("ok")
		if err := primitives(mw.Collective(), mw.Rank(), mw.Size()); err != nil {
			verdict = []byte(err.Error())
		}
		if err := mw.Collective().Gather(verdict); err != nil {
			t.Errorf("MW rank %d verdict gather: %v", mw.Rank(), err)
		}
		mw.Finalize()
	})

	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:        rm.JobSpec{Exe: "app", Nodes: beNodes, TasksPerNode: 1},
			Daemon:     rm.DaemonSpec{Exe: "prim_be"},
			ICCLFanout: 4, // K = fanout+1
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := s.LaunchMW(MWOptions{Nodes: mwNodes, Daemon: rm.DaemonSpec{Exe: "prim_mw"}}); err != nil {
			t.Error(err)
			return
		}
		for kind, gather := range map[string]func() ([][]byte, error){
			"BE": s.Gather,
			"MW": s.MWGather,
		} {
			verdicts, err := gather()
			if err != nil {
				t.Errorf("%s verdict gather: %v", kind, err)
				continue
			}
			for rk, v := range verdicts {
				if string(v) != "ok" {
					t.Errorf("%s rank %d: %s", kind, rk, v)
				}
			}
		}
	})
}

// TestTaggedCollectivesDetachMidFlight detaches the session while two
// tagged collectives are blocked on daemon contributions that never come:
// both streams must wake with ErrSessionClosed — a clean tool detach, so
// the bare sentinel, not a wrapped fault — rather than hang.
func TestTaggedCollectivesDetachMidFlight(t *testing.T) {
	const n = 4
	sim, cl, _ := rig(t, n)
	cl.Register("det_be", func(p *cluster.Proc) {
		if _, err := BEInit(p); err == nil {
			vtime.NewChan[int](p.Sim()).Recv() // never contributes; detach reaps us
		}
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: n, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "det_be"},
		})
		if err != nil {
			t.Error(err)
			return
		}
		tagG, tagR := s.AllocTag(), s.AllocTag()
		done := vtime.NewChan[error](sim)
		sim.Go("det-gather", func() {
			_, err := s.GatherTag(tagG)
			done.Send(err)
		})
		sim.Go("det-reduce", func() {
			_, err := s.ReduceTag(tagR)
			done.Send(err)
		})
		sim.Sleep(100 * time.Millisecond) // both streams in flight
		if err := s.Detach(); err != nil {
			t.Errorf("Detach: %v", err)
		}
		for i := 0; i < 2; i++ {
			err, ok := done.Recv()
			if !ok {
				t.Error("tagged op never returned after Detach")
				return
			}
			if !errors.Is(err, ErrSessionClosed) {
				t.Errorf("tagged op after Detach: %v, want ErrSessionClosed", err)
			}
			if err != nil && strings.Contains(err.Error(), "lost") {
				t.Errorf("clean Detach surfaced a fault detail: %v", err)
			}
		}
	})
}

// TestTaggedCollectivesKillSurfacesFaultPerTag kills a daemon's node while
// two tagged collectives wait on it: every in-flight tagged stream must
// surface the watchdog's terminal fault — ErrSessionClosed wrapped with
// which daemon died — rather than hang on its tag queue.
func TestTaggedCollectivesKillSurfacesFaultPerTag(t *testing.T) {
	const n = 6
	sim, cl, _ := rig(t, n)
	cl.Register("kill_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			return
		}
		if be.Rank() == 3 {
			vtime.NewChan[int](p.Sim()).Recv() // never contributes; the kill reaps us
			return
		}
		dc := be.Collective()
		p.Sim().Go(fmt.Sprintf("kg-%d", be.Rank()), func() {
			dc.GatherTag(coll.MinUserTag, []byte{byte(be.Rank())}) // errors expected at teardown
		})
		p.Sim().Go(fmt.Sprintf("kr-%d", be.Rank()), func() {
			dc.ReduceTag(coll.MinUserTag+1, sumU64(1), "sum")
		})
		vtime.NewChan[int](p.Sim()).Recv()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:        rm.JobSpec{Exe: "app", Nodes: n, TasksPerNode: 1},
			Daemon:     rm.DaemonSpec{Exe: "kill_be"},
			ICCLFanout: 2,
			Health:     HealthOptions{Period: 200 * time.Millisecond, Miss: 2},
		})
		if err != nil {
			t.Error(err)
			return
		}
		var victimHost string
		for _, d := range s.Daemons() {
			if d.Rank == 3 {
				victimHost = d.Host
			}
		}
		done := vtime.NewChan[error](sim)
		sim.Go("kill-gather", func() {
			_, err := s.GatherTag(coll.MinUserTag)
			done.Send(err)
		})
		sim.Go("kill-reduce", func() {
			_, err := s.ReduceTag(coll.MinUserTag + 1)
			done.Send(err)
		})
		sim.Sleep(500 * time.Millisecond) // streams blocked on rank 3
		if !cl.KillNodeByName(victimHost) {
			t.Errorf("KillNodeByName(%q) found nothing", victimHost)
			return
		}
		for i := 0; i < 2; i++ {
			err, ok := done.Recv()
			if !ok {
				t.Error("tagged op never returned after daemon kill")
				return
			}
			if !errors.Is(err, ErrSessionClosed) {
				t.Errorf("tagged op after kill: %v, want wrapped ErrSessionClosed", err)
			}
			if err == nil || !strings.Contains(err.Error(), "daemon rank 3 lost") {
				t.Errorf("tagged op error %q does not carry the terminal fault detail", err)
			}
		}
	})
}

// TestCollWindowBoundsInteriorQueueDepth runs a chunked reduction with
// Options.CollWindow = 4 and checks the harvested fabric-wide
// coll.queue.depth.max gauge: the credit window must bound every interior
// (link, tag) queue at 4 chunks — the end-to-end knob test of the
// LMON_COLL_WINDOW plumbing (the iccl battery covers the per-window
// property).
func TestCollWindowBoundsInteriorQueueDepth(t *testing.T) {
	const n, window = 13, 4
	sim, cl, _ := rig(t, n)
	payload := bytes.Repeat([]byte{0x5A}, 1024) // 16 chunks per daemon at 64 B
	cl.Register("win_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			t.Errorf("BEInit: %v", err)
			return
		}
		if err := be.Collective().Reduce(payload, "concat"); err != nil {
			t.Errorf("rank %d reduce: %v", be.Rank(), err)
		}
		be.Finalize()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:            rm.JobSpec{Exe: "app", Nodes: n, TasksPerNode: 1},
			Daemon:         rm.DaemonSpec{Exe: "win_be"},
			ICCLFanout:     3,
			CollChunkBytes: 64,
			CollWindow:     window,
			Obs:            ObsOn,
		})
		if err != nil {
			t.Error(err)
			return
		}
		out, err := s.Reduce()
		if err != nil {
			t.Error(err)
			return
		}
		if len(out) != n*len(payload) {
			t.Errorf("concat of %d daemons yields %d bytes, want %d", n, len(out), n*len(payload))
		}
		sim.Sleep(time.Second) // let the finalize obs pushes land
		snap, err := s.MetricsSnapshot()
		if err != nil {
			t.Error(err)
			return
		}
		depth := snap.Gauges["coll.queue.depth.max"]
		if depth == 0 {
			t.Error("no interior rank ever queued a chunk — depth gauge missing from the harvest")
		}
		if depth > window {
			t.Errorf("fabric-wide queue depth high-water %d exceeds CollWindow %d", depth, window)
		}
	})
}

// TestNegativeCollWindowRefused pins the API edge: a negative window (once
// the unbounded ablation) is refused by both session entry points before
// anything is spawned, with an error naming the field.
func TestNegativeCollWindowRefused(t *testing.T) {
	sim, cl, _ := rig(t, 1)
	runFE(t, sim, cl, func(p *cluster.Proc) {
		for name, start := range map[string]func(*cluster.Proc, Options) (*Session, error){
			"LaunchAndSpawn": LaunchAndSpawn, "AttachAndSpawn": AttachAndSpawn,
		} {
			_, err := start(p, Options{
				Job:        rm.JobSpec{Exe: "app", Nodes: 1, TasksPerNode: 1},
				Daemon:     rm.DaemonSpec{Exe: "never_spawned"},
				CollWindow: -1,
			})
			if err == nil || !strings.Contains(err.Error(), "CollWindow") {
				t.Errorf("%s with CollWindow -1: err = %v, want one naming CollWindow", name, err)
			}
		}
	})
}
