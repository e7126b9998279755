package bench

import (
	"fmt"
	"io"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/core"
	"launchmon/internal/lmonp"
	"launchmon/internal/rm"
	"launchmon/internal/simnet"
)

// Collective tool-data-plane ablation: the flat pipe the paper's tools
// used — every daemon's contribution funneling through the master and
// relayed monolithically over its single FE link — against the
// tree-routed collective plane, where interior daemons forward bounded
// chunks (gather) or combine contributions (reduce) so per-link message
// counts are bounded by the fanout rather than the daemon count. Three
// phases per scale, each timed from a broadcast go-signal to the merged
// result at the FE:
//
//   - flat:   legacy ICCL gather on a 1-deep tree, master relays one
//     monolithic UsrData payload to the FE (the old SendToFE idiom);
//   - tree:   Session.Gather over a k-ary tree, chunk-streamed;
//   - reduce: Session.Reduce with the sum filter — the root-bound bytes
//     are independent of K entirely.

// collectiveRow is one scale's measurements.
type collectiveRow struct {
	Daemons  int
	PayloadB int // per-daemon contribution bytes (gather phases)
	Fanout   int // tree fanout of the tree/reduce phases

	FlatGather time.Duration // go-signal → merged report, flat master relay
	TreeGather time.Duration // go-signal → merged report, collective plane
	ReduceSum  time.Duration // go-signal → combined sum at the FE

	FlatBytes   int64 // network bytes of the flat gather phase
	TreeBytes   int64 // network bytes of the tree gather phase
	ReduceBytes int64 // network bytes of the reduce phase

	FlatMasterLinks int // inbound tree links at the master: K-1
	TreeMasterLinks int // inbound tree links at the master: min(fanout, K-1)
}

// collectiveOpts parameterize the ablation.
type collectiveOpts struct {
	PayloadB int // per-daemon contribution
	Fanout   int // tree fanout
}

// collectiveAblation measures all three phases at each scale.
func collectiveAblation(o collectiveOpts, scales []int) ([]collectiveRow, error) {
	return sweep("collective ablation", scales, func(k int) (collectiveRow, error) {
		row := collectiveRow{
			Daemons: k, PayloadB: o.PayloadB, Fanout: o.Fanout,
			FlatMasterLinks: k - 1,
			TreeMasterLinks: min(o.Fanout, k-1),
		}
		var err error
		if row.FlatGather, row.FlatBytes, err = measureFlatGather(k, o.PayloadB); err != nil {
			return row, fmt.Errorf("flat gather: %w", err)
		}
		if row.TreeGather, row.TreeBytes, err = measureTreeGather(k, o.Fanout, o.PayloadB); err != nil {
			return row, fmt.Errorf("tree gather: %w", err)
		}
		if row.ReduceSum, row.ReduceBytes, err = measureReduceSum(k, o.Fanout); err != nil {
			return row, fmt.Errorf("reduce: %w", err)
		}
		return row, nil
	})
}

func payloadFor(rank, bytes int) []byte {
	b := make([]byte, bytes)
	for i := range b {
		b[i] = byte(rank)
	}
	return b
}

// collectivePhase launches k daemons running be over a fanout-ary tree
// (0 = flat) and times fe — go-signal to merged and verified result — on
// the ready session, returning its virtual time and network bytes.
func collectivePhase(k, fanout int, exe string, be func(*cluster.Proc, *core.BackEnd), fe func(*core.Session) error) (time.Duration, int64, error) {
	var elapsed time.Duration
	var net simnet.Stats
	_, err := Scenario{
		Nodes: k,
		Opts: core.Options{
			Job:        rm.JobSpec{Exe: "app", Nodes: k, TasksPerNode: 1},
			Daemon:     rm.DaemonSpec{Exe: exe},
			ICCLFanout: fanout,
		},
		BE: be,
		FE: func(r *Run) (err error) {
			elapsed, net, err = r.timed(func() error { return fe(r.Sess) })
			return err
		},
	}.Run()
	return elapsed, net.Bytes, err
}

// measureFlatGather is the legacy shape: flat (1-deep) ICCL tree, every
// contribution crosses one hop to the master, which relays the
// concatenation as one monolithic UsrData message.
func measureFlatGather(k, payloadB int) (time.Duration, int64, error) {
	return collectivePhase(k, 0, "cflat_be", func(p *cluster.Proc, be *core.BackEnd) {
		var data []byte
		var err error
		if be.AmIMaster() {
			if data, err = be.RecvFromFE(); err != nil {
				return
			}
		}
		if _, err := be.Broadcast(data); err != nil { // go-signal
			return
		}
		all, err := be.Gather(payloadFor(be.Rank(), payloadB))
		if err != nil {
			return
		}
		if be.AmIMaster() {
			blob := lmonp.AppendUint32(nil, uint32(len(all)))
			for _, contrib := range all {
				blob = lmonp.AppendBytes(blob, contrib)
			}
			be.SendToFE(blob)
		}
		be.Finalize()
	}, func(sess *core.Session) error {
		if err := sess.SendToBE([]byte("go")); err != nil {
			return err
		}
		blob, err := sess.RecvFromBE()
		if err != nil {
			return err
		}
		rd := lmonp.NewReader(blob)
		if n := rd.Uint32(); rd.Err() != nil || int(n) != k {
			return fmt.Errorf("flat gather merged %d of %d contributions (%v)", n, k, rd.Err())
		}
		return nil
	})
}

// measureTreeGather is the collective plane: k-ary tree, interior daemons
// forward bounded chunks, the FE assembles rank-indexed contributions.
func measureTreeGather(k, fanout, payloadB int) (time.Duration, int64, error) {
	return collectivePhase(k, fanout, "ctree_be", func(p *cluster.Proc, be *core.BackEnd) {
		if _, err := be.Collective().Broadcast(); err != nil { // go-signal
			return
		}
		if err := be.Collective().Gather(payloadFor(be.Rank(), payloadB)); err != nil {
			return
		}
		be.Finalize()
	}, func(sess *core.Session) error {
		if err := sess.Broadcast([]byte("go")); err != nil {
			return err
		}
		all, err := sess.Gather()
		if err == nil && len(all) != k {
			err = fmt.Errorf("tree gather returned %d of %d contributions", len(all), k)
		}
		return err
	})
}

// measureReduceSum is the combining plane: every daemon contributes one
// uint64, interior daemons sum, the FE receives 8 bytes no matter K.
func measureReduceSum(k, fanout int) (time.Duration, int64, error) {
	return collectivePhase(k, fanout, "cred_be", func(p *cluster.Proc, be *core.BackEnd) {
		if _, err := be.Collective().Broadcast(); err != nil { // go-signal
			return
		}
		if err := be.Collective().Reduce(lmonp.AppendUint64(nil, 1), "sum"); err != nil {
			return
		}
		be.Finalize()
	}, func(sess *core.Session) error {
		if err := sess.Broadcast([]byte("go")); err != nil {
			return err
		}
		sum, err := sess.Reduce()
		if err != nil {
			return err
		}
		rd := lmonp.NewReader(sum)
		if v := rd.Uint64(); rd.Err() != nil || v != uint64(k) {
			return fmt.Errorf("reduce summed %d of %d daemons (%v)", v, k, rd.Err())
		}
		return nil
	})
}

// printCollective renders the rows.
func printCollective(w io.Writer, rows []collectiveRow) {
	fmt.Fprintln(w, "Ablation — collective tool-data plane (flat master relay vs tree routing)")
	fmt.Fprintln(w, "daemons  payload fanout  flat-gather tree-gather reduce-sum  master-links(flat/tree)")
	for _, r := range rows {
		fmt.Fprintf(w, "%7d %7dB %6d %11.3fs %10.3fs %9.3fs  %6d / %d\n",
			r.Daemons, r.PayloadB, r.Fanout,
			r.FlatGather.Seconds(), r.TreeGather.Seconds(), r.ReduceSum.Seconds(),
			r.FlatMasterLinks, r.TreeMasterLinks)
	}
}
