package bench

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"

	"launchmon/internal/cluster"
	"launchmon/internal/core"
	"launchmon/internal/proctab"
	"launchmon/internal/rm"
)

// The million-daemon launch sweep — the ROADMAP's headline scale target.
// Only the rank-sliced cut-through pipeline can reach K=10⁶ on a bounded
// host: full retention would put a ~60 MB table copy in every one of a
// million simulated daemons. The sweep runs on a lean rig (RM and
// LaunchMON only — the full rig parks two extra system processes per
// node, which at this scale costs more host memory than LaunchMON
// itself) with health detection off, one task per node, and no
// post-launch verification gather (the slice-union byte check runs in
// LaunchPipeline at K≤16384, where full retention exists to compare
// against).

// MillionScales are the daemon counts of the million sweep.
var MillionScales = []int{1 << 20}

// MillionOpts parameterize the sweep.
type MillionOpts struct {
	TasksPerNode int // default 1
	Fanout       int // ICCL tree fanout (default 64)
}

func (o MillionOpts) withDefaults() MillionOpts {
	if o.TasksPerNode == 0 {
		o.TasksPerNode = 1
	}
	if o.Fanout == 0 {
		o.Fanout = 64
	}
	return o
}

// LaunchMillion measures the rank-sliced cut-through launch at each
// scale, reporting the same row shape as LaunchPipeline.
func LaunchMillion(opts MillionOpts, scales []int) ([]LaunchPipeRow, error) {
	o := opts.withDefaults()
	rows := make([]LaunchPipeRow, 0, len(scales))
	for _, k := range scales {
		row, err := measureLaunchMillion(k, o)
		if err != nil {
			return nil, fmt.Errorf("million launch sweep at K=%d: %w", k, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func measureLaunchMillion(k int, o MillionOpts) (LaunchPipeRow, error) {
	row := LaunchPipeRow{
		Mode:    core.SeedCutThrough.String(),
		Table:   retentionOf(core.SeedCutThrough),
		Daemons: k,
		Tasks:   k * o.TasksPerNode,
	}
	r, err := NewRig(RigOptions{Nodes: k, Lean: true})
	if err != nil {
		return row, err
	}
	registerNoopBE(r.Cl, "million_be")
	err = r.RunFE(func(p *cluster.Proc) error {
		t0 := p.Sim().Now()
		sess, err := core.LaunchAndSpawn(p, core.Options{
			Job:        rm.JobSpec{Exe: "app", Nodes: k, TasksPerNode: o.TasksPerNode},
			Daemon:     rm.DaemonSpec{Exe: "million_be"},
			ICCLFanout: o.Fanout,
		})
		if err != nil {
			return err
		}
		row.Ready = p.Sim().Now() - t0
		row.TableOK = true // verified against full retention in LaunchPipeline at K≤16384
		for _, chunk := range sess.Proctab().EncodeChunks(0) {
			row.MemEngine = max(row.MemEngine, len(chunk))
		}
		row.MemFE = sess.Proctab().MemBytes()
		sorted := append(proctab.Table(nil), sess.Proctab()...)
		sorted.SortByRank()
		idx, err := proctab.BuildIndex(sorted)
		if err != nil {
			return err
		}
		row.MemIndex = idx.MemBytes()
		roleMem(&row, sess.Daemons(), o.Fanout)
		return nil
	})
	// Host-cost columns: the sweep's acceptance bound is ≤1.25 parked
	// goroutines per simulated node (DESIGN.md "Simulator cost model").
	row.GoroutinesPeak = r.Sim.PeakLive()
	row.GoroutinesPerNode = float64(row.GoroutinesPeak) / float64(k)
	row.RSSPeakB = hostRSSPeak()
	return row, err
}

// hostRSSPeak reads this process's peak resident set (VmHWM) in bytes.
// Returns 0 where /proc is unavailable; the column is then omitted.
func hostRSSPeak() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		f := bytes.Fields(line[len("VmHWM:"):])
		if len(f) < 1 {
			return 0
		}
		kb, err := strconv.ParseUint(string(f[0]), 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// PrintMillionCost renders the simulator host-cost columns of a million
// sweep: the per-node goroutine budget is the deterministic, pinnable
// figure; peak RSS depends on the host Go runtime and is informational.
func PrintMillionCost(w io.Writer, rows []LaunchPipeRow) {
	fmt.Fprintln(w, "Simulator host cost (goroutines are virtual-time-deterministic; RSS is host-dependent)")
	fmt.Fprintln(w, "daemons   goroutines-peak  goroutines/node  rss-peak-MB")
	for _, r := range rows {
		fmt.Fprintf(w, "%7d %17d %16.3f %12.1f\n",
			r.Daemons, r.GoroutinesPeak, r.GoroutinesPerNode, float64(r.RSSPeakB)/(1<<20))
	}
}
