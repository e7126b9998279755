package bench

import (
	"fmt"
	"io"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/core"
	"launchmon/internal/lmonp"
	"launchmon/internal/rm"
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

// CollectiveRow is one scale's measurements.
type CollectiveRow struct {
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

// CollectiveScales are the daemon counts of the sweep.
var CollectiveScales = []int{64, 1024, 16384}

// CollectiveOpts parameterize the ablation.
type CollectiveOpts struct {
	PayloadB int // per-daemon contribution (default 256)
	Fanout   int // tree fanout (default 32)
}

func (o CollectiveOpts) withDefaults() CollectiveOpts {
	if o.PayloadB == 0 {
		o.PayloadB = 256
	}
	if o.Fanout == 0 {
		o.Fanout = 32
	}
	return o
}

// CollectiveAblation measures all three phases at each scale.
func CollectiveAblation(opts CollectiveOpts, scales []int) ([]CollectiveRow, error) {
	o := opts.withDefaults()
	rows := make([]CollectiveRow, 0, len(scales))
	for _, k := range scales {
		row := CollectiveRow{
			Daemons: k, PayloadB: o.PayloadB, Fanout: o.Fanout,
			FlatMasterLinks: k - 1,
			TreeMasterLinks: min(o.Fanout, k-1),
		}
		var err error
		if row.FlatGather, row.FlatBytes, err = measureFlatGather(k, o.PayloadB); err != nil {
			return nil, fmt.Errorf("flat gather at K=%d: %w", k, err)
		}
		if row.TreeGather, row.TreeBytes, err = measureTreeGather(k, o.Fanout, o.PayloadB); err != nil {
			return nil, fmt.Errorf("tree gather at K=%d: %w", k, err)
		}
		if row.ReduceSum, row.ReduceBytes, err = measureReduceSum(k, o.Fanout); err != nil {
			return nil, fmt.Errorf("reduce at K=%d: %w", k, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func payloadFor(rank, bytes int) []byte {
	b := make([]byte, bytes)
	for i := range b {
		b[i] = byte(rank)
	}
	return b
}

// measureFlatGather is the legacy shape: flat (1-deep) ICCL tree, every
// contribution crosses one hop to the master, which relays the
// concatenation as one monolithic UsrData message.
func measureFlatGather(k, payloadB int) (time.Duration, int64, error) {
	r, err := NewRig(RigOptions{Nodes: k})
	if err != nil {
		return 0, 0, err
	}
	r.Cl.Register("cflat_be", func(p *cluster.Proc) {
		be, err := core.BEInit(p)
		if err != nil {
			return
		}
		var data []byte
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
	})
	var elapsed time.Duration
	var bytes int64
	err = r.RunFE(func(p *cluster.Proc) error {
		sess, err := core.LaunchAndSpawn(p, core.Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: k, TasksPerNode: 1},
			Daemon: rm.DaemonSpec{Exe: "cflat_be"},
		})
		if err != nil {
			return err
		}
		start := p.Sim().Now()
		before := r.Cl.Net().Stats()
		if err := sess.SendToBE([]byte("go")); err != nil {
			return err
		}
		blob, err := sess.RecvFromBE()
		if err != nil {
			return err
		}
		elapsed = p.Sim().Now() - start
		bytes = r.Cl.Net().Stats().Bytes - before.Bytes
		rd := lmonp.NewReader(blob)
		n, err := rd.Uint32()
		if err != nil || int(n) != k {
			return fmt.Errorf("flat gather merged %d of %d contributions (%v)", n, k, err)
		}
		return nil
	})
	return elapsed, bytes, err
}

// measureTreeGather is the collective plane: k-ary tree, interior daemons
// forward bounded chunks, the FE assembles rank-indexed contributions.
func measureTreeGather(k, fanout, payloadB int) (time.Duration, int64, error) {
	r, err := NewRig(RigOptions{Nodes: k})
	if err != nil {
		return 0, 0, err
	}
	r.Cl.Register("ctree_be", func(p *cluster.Proc) {
		be, err := core.BEInit(p)
		if err != nil {
			return
		}
		if _, err := be.Collective().Broadcast(); err != nil { // go-signal
			return
		}
		if err := be.Collective().Gather(payloadFor(be.Rank(), payloadB)); err != nil {
			return
		}
		be.Finalize()
	})
	var elapsed time.Duration
	var bytes int64
	err = r.RunFE(func(p *cluster.Proc) error {
		sess, err := core.LaunchAndSpawn(p, core.Options{
			Job:        rm.JobSpec{Exe: "app", Nodes: k, TasksPerNode: 1},
			Daemon:     rm.DaemonSpec{Exe: "ctree_be"},
			ICCLFanout: fanout,
		})
		if err != nil {
			return err
		}
		start := p.Sim().Now()
		before := r.Cl.Net().Stats()
		if err := sess.Broadcast([]byte("go")); err != nil {
			return err
		}
		all, err := sess.Gather()
		if err != nil {
			return err
		}
		elapsed = p.Sim().Now() - start
		bytes = r.Cl.Net().Stats().Bytes - before.Bytes
		if len(all) != k {
			return fmt.Errorf("tree gather returned %d of %d contributions", len(all), k)
		}
		return nil
	})
	return elapsed, bytes, err
}

// measureReduceSum is the combining plane: every daemon contributes one
// uint64, interior daemons sum, the FE receives 8 bytes no matter K.
func measureReduceSum(k, fanout int) (time.Duration, int64, error) {
	r, err := NewRig(RigOptions{Nodes: k})
	if err != nil {
		return 0, 0, err
	}
	r.Cl.Register("cred_be", func(p *cluster.Proc) {
		be, err := core.BEInit(p)
		if err != nil {
			return
		}
		if _, err := be.Collective().Broadcast(); err != nil { // go-signal
			return
		}
		if err := be.Collective().Reduce(lmonp.AppendUint64(nil, 1), "sum"); err != nil {
			return
		}
		be.Finalize()
	})
	var elapsed time.Duration
	var bytes int64
	err = r.RunFE(func(p *cluster.Proc) error {
		sess, err := core.LaunchAndSpawn(p, core.Options{
			Job:        rm.JobSpec{Exe: "app", Nodes: k, TasksPerNode: 1},
			Daemon:     rm.DaemonSpec{Exe: "cred_be"},
			ICCLFanout: fanout,
		})
		if err != nil {
			return err
		}
		start := p.Sim().Now()
		before := r.Cl.Net().Stats()
		if err := sess.Broadcast([]byte("go")); err != nil {
			return err
		}
		sum, err := sess.Reduce()
		if err != nil {
			return err
		}
		elapsed = p.Sim().Now() - start
		bytes = r.Cl.Net().Stats().Bytes - before.Bytes
		v, err := lmonp.NewReader(sum).Uint64()
		if err != nil || v != uint64(k) {
			return fmt.Errorf("reduce summed %d of %d daemons (%v)", v, k, err)
		}
		return nil
	})
	return elapsed, bytes, err
}

// PrintCollective renders the rows.
func PrintCollective(w io.Writer, rows []CollectiveRow) {
	fmt.Fprintln(w, "Ablation — collective tool-data plane (flat master relay vs tree routing)")
	fmt.Fprintln(w, "daemons  payload fanout  flat-gather tree-gather reduce-sum  master-links(flat/tree)")
	for _, r := range rows {
		fmt.Fprintf(w, "%7d %7dB %6d %11.3fs %10.3fs %9.3fs  %6d / %d\n",
			r.Daemons, r.PayloadB, r.Fanout,
			r.FlatGather.Seconds(), r.TreeGather.Seconds(), r.ReduceSum.Seconds(),
			r.FlatMasterLinks, r.TreeMasterLinks)
	}
}
