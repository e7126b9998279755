package bench

import (
	"fmt"
	"io"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/core"
	"launchmon/internal/rm"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// Contention ablation: N tool components multiplexing collectives on one
// session. Before concurrent tagged streams, a session's collective plane
// was lockstep — every component's request/response serialized behind
// every other's. With per-tag streams the same operations interleave on
// the shared links under the credit window. The workload is the
// query/response shape real tools have: each tool broadcasts a query and
// gathers the per-daemon responses (PayloadB bytes each), so a tool's
// round trip cannot start until its query goes down — which is exactly
// what the lockstep plane cannot overlap, while one-directional streams
// (a bare sequence of gathers) pipeline even without tags because
// daemons race ahead of the FE. Both phases run the identical set of
// collectives on a fresh rig per measurement, timed from the first query
// to the last tool's completed response at the FE:
//
//   - serialized: the lockstep plane — Session.Broadcast then
//     Session.Gather per tool, back to back, the pre-tag baseline;
//   - concurrent: Tools FE goroutines each driving its own tagged
//     BroadcastTag/GatherTag round trip, daemons running the mirror
//     goroutines.

// contentionRow is one scale's measurements.
type contentionRow struct {
	Daemons  int
	Tools    int // concurrent tool components on the one session
	PayloadB int // per-daemon gather contribution bytes
	Fanout   int // ICCL tree fanout
	Window   int // credit window: always 0, coll.DefaultWindow (a pinned column)

	Serialized time.Duration // go-signal → last result, lockstep plane
	Concurrent time.Duration // go-signal → last result, tagged streams

	SerializedBytes int64 // network bytes of the serialized phase
	ConcurrentBytes int64 // network bytes of the concurrent phase

	Speedup float64 // Serialized / Concurrent
}

// contentionOpts parameterize the ablation.
type contentionOpts struct {
	Tools    int // concurrent tool components
	PayloadB int // per-daemon gather contribution
	Fanout   int // tree fanout
}

// contentionAblation measures both phases at each scale.
func contentionAblation(o contentionOpts, scales []int) ([]contentionRow, error) {
	return sweep("contention ablation", scales, func(k int) (contentionRow, error) {
		row := contentionRow{
			Daemons: k, Tools: o.Tools, PayloadB: o.PayloadB, Fanout: o.Fanout,
		}
		var err error
		if row.Serialized, row.SerializedBytes, err = measureContention(k, o, false); err != nil {
			return row, fmt.Errorf("serialized: %w", err)
		}
		if row.Concurrent, row.ConcurrentBytes, err = measureContention(k, o, true); err != nil {
			return row, fmt.Errorf("concurrent: %w", err)
		}
		if row.Concurrent > 0 {
			row.Speedup = float64(row.Serialized) / float64(row.Concurrent)
		}
		return row, nil
	})
}

// contentionTags returns tool i's (broadcast, gather) tag pair. Both
// sides derive the pair independently — tags are just agreed stream
// names, so a fixed scheme needs no coordination round.
func contentionTags(i int) (uint32, uint32) {
	base := coll.MinUserTag + uint32(2*i)
	return base, base + 1
}

// contentionQuery is the fixed query a tool broadcasts to its daemons.
var contentionQuery = []byte("query: report status")

// measureContention runs one phase: every tool performs one
// query-broadcast / response-gather round trip, serialized over the
// lockstep plane or concurrently over tagged streams.
func measureContention(k int, o contentionOpts, tagged bool) (time.Duration, int64, error) {
	exe := "cont_serial_be"
	if tagged {
		exe = "cont_tagged_be"
	}
	var elapsed time.Duration
	var net simnet.Stats
	_, err := Scenario{
		Nodes: k,
		Opts: core.Options{
			Job:        rm.JobSpec{Exe: "app", Nodes: k, TasksPerNode: 1},
			Daemon:     rm.DaemonSpec{Exe: exe},
			ICCLFanout: o.Fanout,
		},
		BE: func(p *cluster.Proc, be *core.BackEnd) {
			dc := be.Collective()
			contrib := payloadFor(be.Rank(), o.PayloadB)
			if !tagged {
				for i := 0; i < o.Tools; i++ {
					if _, err := dc.Broadcast(); err != nil {
						return
					}
					if err := dc.Gather(contrib); err != nil {
						return
					}
				}
			} else {
				done := vtime.NewChan[error](p.Sim())
				for i := 0; i < o.Tools; i++ {
					bTag, gTag := contentionTags(i)
					p.Sim().Go(fmt.Sprintf("cont-be-tool-%d", i), func() {
						if _, err := dc.BroadcastTag(bTag); err != nil {
							done.Send(err)
							return
						}
						done.Send(dc.GatherTag(gTag, contrib))
					})
				}
				for i := 0; i < o.Tools; i++ {
					if err, _ := done.Recv(); err != nil {
						return
					}
				}
			}
			be.Finalize()
		},
		FE: func(r *Run) (err error) {
			elapsed, net, err = r.timed(func() error { return contentionFE(r, k, o.Tools, tagged) })
			return err
		},
	}.Run()
	return elapsed, net.Bytes, err
}

// contentionFE is the front-end side of one phase: every tool's round
// trip must gather every daemon's contribution.
func contentionFE(r *Run, k, tools int, tagged bool) error {
	sess := r.Sess
	check := func(i int, all [][]byte, err error) error {
		if err == nil && len(all) != k {
			err = fmt.Errorf("gather returned %d of %d contributions", len(all), k)
		}
		if err != nil {
			return fmt.Errorf("tool %d: %w", i, err)
		}
		return nil
	}
	if !tagged {
		for i := 0; i < tools; i++ {
			if err := sess.Broadcast(contentionQuery); err != nil {
				return err
			}
			all, err := sess.Gather()
			if err := check(i, all, err); err != nil {
				return err
			}
		}
		return nil
	}
	done := vtime.NewChan[error](r.Sim)
	for i := 0; i < tools; i++ {
		i := i
		bTag, gTag := contentionTags(i)
		r.Sim.Go(fmt.Sprintf("cont-fe-tool-%d", i), func() {
			if err := sess.BroadcastTag(bTag, contentionQuery); err != nil {
				done.Send(fmt.Errorf("tool %d: %w", i, err))
				return
			}
			all, err := sess.GatherTag(gTag)
			done.Send(check(i, all, err))
		})
	}
	for i := 0; i < tools; i++ {
		if err, _ := done.Recv(); err != nil {
			return err
		}
	}
	return nil
}

// printContention renders the rows.
func printContention(w io.Writer, rows []contentionRow) {
	fmt.Fprintln(w, "Ablation — collective contention (lockstep serialization vs concurrent tagged streams)")
	fmt.Fprintln(w, "daemons  tools payload fanout window  serialized concurrent speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%7d %6d %6dB %6d %6d %10.3fs %9.3fs %6.2fx\n",
			r.Daemons, r.Tools, r.PayloadB, r.Fanout, coll.DefaultWindow,
			r.Serialized.Seconds(), r.Concurrent.Seconds(), r.Speedup)
	}
}
