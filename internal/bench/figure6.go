package bench

import (
	"fmt"
	"io"
	"time"

	"launchmon/internal/rm"
	"launchmon/internal/tools/stat"
)

// fig6Row is one STAT start-up measurement: MRNet's native rsh launch
// versus the LaunchMON integration, 1-deep topology.
type fig6Row struct {
	Daemons       int
	Tasks         int
	MRNet         time.Duration // native rsh launch+connect; 0 when failed
	MRNetFailed   bool
	MRNetEstimate time.Duration // linear extrapolation when failed
	LaunchMON     time.Duration
}

// figure6Scales are the daemon counts of the STAT start-up experiment
// (8 tasks per daemon; the rsh path fails at 512 on a 512-process front
// end, as on Atlas).
var figure6Scales = []int{4, 16, 64, 128, 256, 512}

// figure6FrontEndProcLimit models Atlas's per-user process limit on the
// front-end node: the resident rsh clients exhaust it at 512 daemons.
const figure6FrontEndProcLimit = 512

// figure6 regenerates the STAT start-up comparison.
func figure6() ([]fig6Row, error) {
	return figure6At(figure6Scales, figure6FrontEndProcLimit)
}

func figure6At(scales []int, feLimit int) ([]fig6Row, error) {
	const tasksPerDaemon = 8
	rows := make([]fig6Row, 0, len(scales))
	var slope float64 // seconds per daemon from successful rsh runs
	for _, n := range scales {
		row := fig6Row{Daemons: n, Tasks: n * tasksPerDaemon}

		// LaunchMON path.
		lm, err := measureSTATLaunchMON(n, tasksPerDaemon)
		if err != nil {
			return nil, fmt.Errorf("figure6 launchmon at %d: %w", n, err)
		}
		row.LaunchMON = lm

		// Native MRNet (rsh) path on a fresh rig with the front-end
		// process limit in force.
		mr, failed, err := measureSTATNative(n, tasksPerDaemon, feLimit)
		if err != nil {
			return nil, fmt.Errorf("figure6 native at %d: %w", n, err)
		}
		row.MRNet, row.MRNetFailed = mr, failed
		if !failed && n > 0 {
			slope = mr.Seconds() / float64(n)
		}
		if failed {
			row.MRNetEstimate = time.Duration(slope * float64(n) * float64(time.Second))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func measureSTATLaunchMON(daemons, tasksPerDaemon int) (time.Duration, error) {
	var startup time.Duration
	_, err := Scenario{Nodes: daemons, FE: func(r *Run) error {
		j, err := r.startJob("app", daemons, tasksPerDaemon, 5*time.Second)
		if err != nil {
			return err
		}
		inst, err := stat.LaunchWithLaunchMON(r.P, j.ID())
		if err != nil {
			return err
		}
		defer inst.Close()
		startup = inst.StartupTime
		// Sanity: the overlay must actually work after startup.
		tree, err := inst.Sample()
		if err != nil {
			return err
		}
		if tree.Tasks() != daemons*tasksPerDaemon {
			return fmt.Errorf("sampled %d tasks, want %d", tree.Tasks(), daemons*tasksPerDaemon)
		}
		return nil
	}}.Run()
	return startup, err
}

// measureSTATNative returns the rsh-based startup time, or failed=true
// when the front end could not fork all rsh clients (the paper's 512-node
// failure).
func measureSTATNative(daemons, tasksPerDaemon, feLimit int) (time.Duration, bool, error) {
	var startup time.Duration
	failed := false
	_, err := Scenario{Nodes: daemons, MaxProcs: feLimit, FE: func(r *Run) error {
		j, err := r.startJob("app", daemons, tasksPerDaemon, 5*time.Second)
		if err != nil {
			return err
		}
		// Native MRNet needs the task map up front (the old shared-file
		// mechanism); read it off the launcher before the clock starts.
		tab, err := rm.ReadProctab(j.LauncherProc())
		if err != nil {
			return err
		}
		ranks := map[string][]int{}
		for _, d := range tab {
			ranks[d.Host] = append(ranks[d.Host], d.Rank)
		}
		inst, err := stat.LaunchWithRsh(r.P, r.Rsh, tab.Hosts(), ranks)
		if err != nil {
			failed = true
			return nil // expected at the largest scale
		}
		defer inst.Close()
		startup = inst.StartupTime
		return nil
	}}.Run()
	return startup, failed, err
}

// printFigure6 renders the comparison like the paper's chart.
func printFigure6(w io.Writer, rows []fig6Row) {
	fmt.Fprintln(w, "Figure 6 — STAT start-up: MRNet(rsh) vs LaunchMON, 1-deep (8 tasks/daemon)")
	fmt.Fprintln(w, "daemons  tasks   MRNet-rsh        LaunchMON")
	for _, r := range rows {
		mr := fmt.Sprintf("%9.3fs", r.MRNet.Seconds())
		if r.MRNetFailed {
			mr = fmt.Sprintf("FAILED(~%.0fs est)", r.MRNetEstimate.Seconds())
		}
		fmt.Fprintf(w, "%7d %6d %-16s %9.3fs\n", r.Daemons, r.Tasks, mr, r.LaunchMON.Seconds())
	}
}
