package bench

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strconv"

	"launchmon/internal/core"
)

// The million-daemon launch sweep — the ROADMAP's headline scale target.
// Only the rank-sliced cut-through pipeline can reach K=10⁶ on a bounded
// host: full retention would put a ~60 MB table copy in every one of a
// million simulated daemons. The sweep runs on a lean rig (RM and
// LaunchMON only — the full rig parks two extra system processes per
// node, which at this scale costs more host memory than LaunchMON
// itself) with health detection off, one task per node, and no
// post-launch verification gather (the slice-union byte check runs in
// launchPipeline at K≤16384, where full retention exists to compare
// against).

// millionScales are the daemon counts of the million sweep.
var millionScales = []int{1 << 20}

// launchMillion measures the rank-sliced cut-through launch at each
// scale, reporting the same row shape as launchPipeline plus the
// simulator host-cost columns.
func launchMillion(o launchPipeOpts, scales []int) ([]launchPipeRow, error) {
	return sweep("million launch sweep", scales, func(k int) (launchPipeRow, error) {
		return measureLaunchPipe(k, core.SeedCutThrough, o, true)
	})
}

// boundMillionHeap sets the GC up for the full-scale sweep and returns the
// function that restores it.
func boundMillionHeap() (restore func()) {
	gc, limit := -1, int64(-1)
	// The million sweep's peak heap is ~everything live at once (all K
	// daemons coexist until the seed drains), so the default GOGC headroom
	// nearly doubles RSS for no reclaim. Trade GC CPU for the 16 GB CI
	// budget; GOGC set in the environment wins.
	if os.Getenv("GOGC") == "" {
		gc = debug.SetGCPercent(30)
	}
	// A soft memory limit backstops the GOGC slack: near the limit the GC
	// collects proportionally harder, trading CPU for the heap headroom
	// GOGC=30 would otherwise keep. 13 GiB leaves the full-scale run's
	// fixed costs (a million 4 KB goroutine stacks plus their descriptors,
	// plus ~7 GB of live fabric state) inside the 16 GB CI budget with
	// margin; a GOMEMLIMIT set in the environment wins. Note the limit
	// bounds what the runtime holds, not the process RSS a memory-gated
	// runner sees: freed pages returned with MADV_FREE stay resident until
	// the host is under pressure, so CI additionally runs this step with
	// GODEBUG=madvdontneed=1 to make VmHWM track the limit.
	if os.Getenv("GOMEMLIMIT") == "" {
		limit = debug.SetMemoryLimit(13 << 30)
	}
	return func() {
		if gc != -1 {
			debug.SetGCPercent(gc)
		}
		debug.SetMemoryLimit(limit)
	}
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

// printMillionCost renders the simulator host-cost columns of a million
// sweep: the per-node goroutine budget is the deterministic, pinnable
// figure; peak RSS depends on the host Go runtime and is informational.
func printMillionCost(w io.Writer, rows []launchPipeRow) {
	fmt.Fprintln(w, "Simulator host cost (goroutines are virtual-time-deterministic; RSS is host-dependent)")
	fmt.Fprintln(w, "daemons   goroutines-peak  goroutines/node  rss-peak-MB")
	for _, r := range rows {
		fmt.Fprintf(w, "%7d %17d %16.3f %12.1f\n",
			r.Daemons, r.GoroutinesPeak, r.GoroutinesPerNode, float64(r.RSSPeakB)/(1<<20))
	}
}
