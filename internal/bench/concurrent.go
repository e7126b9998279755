package bench

import (
	"fmt"
	"io"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/core"
	"launchmon/internal/rm"
	"launchmon/internal/vtime"
)

// Concurrent-session ablation: one front-end process drives K tool
// sessions at once over its single transport mux — the multi-session
// workload the seed's one-listener-per-session design could not express.
// Because the RM spawns each session's job and daemons on disjoint nodes,
// the per-node work of the K sessions overlaps almost entirely and
// aggregate session-setup throughput should rise with K.

// concurrentRow is one K-sessions measurement.
type concurrentRow struct {
	Sessions   int           // K concurrent sessions
	NodesEach  int           // nodes (daemons) per session
	Wall       time.Duration // first launch call → last session ready (virtual)
	Slowest    time.Duration // slowest single session's setup time
	Throughput float64       // sessions per virtual second (aggregate)
}

// concurrentScales are the session counts of the ablation.
var concurrentScales = []int{1, 4, 8}

// concurrentSessionOpts sizes one session of the ablation.
type concurrentSessionOpts struct {
	NodesEach    int
	TasksPerNode int
}

// concurrentSessions measures aggregate launchAndSpawn throughput for
// each K in scales: K sessions launched from parallel goroutines of one
// FE process on a fresh rig sized to hold all K jobs.
func concurrentSessions(o concurrentSessionOpts, scales []int) ([]concurrentRow, error) {
	return sweep("concurrent sessions", scales, func(k int) (concurrentRow, error) { return measureConcurrent(k, o) })
}

func measureConcurrent(k int, o concurrentSessionOpts) (concurrentRow, error) {
	row := concurrentRow{Sessions: k, NodesEach: o.NodesEach}
	_, err := Scenario{
		Nodes: k * o.NodesEach,
		Boot: func(cl *cluster.Cluster) error {
			cl.Register("cc_be", beMain(nil))
			return nil
		},
		FE: func(r *Run) error {
			errs := make([]error, k)
			durs := make([]time.Duration, k)
			wg := vtime.NewWaitGroup(r.Sim)
			wg.Add(k)
			row.Wall, _, _ = r.timed(func() error {
				for i := 0; i < k; i++ {
					i := i
					r.Sim.Go(fmt.Sprintf("cc-session-%d", i), func() {
						defer wg.Done()
						t0 := r.Sim.Now()
						// The runner launches one session from the FE's own
						// goroutine; this ablation is K launches racing on
						// the FE's one transport mux, so it launches by hand.
						_, errs[i] = core.LaunchAndSpawn(r.P, core.Options{
							Job:    rm.JobSpec{Exe: "app", Nodes: o.NodesEach, TasksPerNode: o.TasksPerNode},
							Daemon: rm.DaemonSpec{Exe: "cc_be"},
						})
						durs[i] = r.Sim.Now() - t0
					})
				}
				wg.Wait()
				return nil
			})
			for i := 0; i < k; i++ {
				if errs[i] != nil {
					return fmt.Errorf("session %d: %w", i, errs[i])
				}
				row.Slowest = max(row.Slowest, durs[i])
			}
			return nil
		},
	}.Run()
	if err == nil && row.Wall > 0 {
		row.Throughput = float64(row.Sessions) / row.Wall.Seconds()
	}
	return row, err
}

// printConcurrent renders the concurrent-session rows.
func printConcurrent(w io.Writer, rows []concurrentRow) {
	fmt.Fprintln(w, "Ablation — concurrent sessions per FE process (one transport mux)")
	fmt.Fprintln(w, "sessions  nodes/sess  wall      slowest   sessions/s")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %11d %8.3fs %8.3fs %10.2f\n",
			r.Sessions, r.NodesEach, r.Wall.Seconds(), r.Slowest.Seconds(), r.Throughput)
	}
}
