package bench

import (
	"fmt"
	"io"
	"time"

	"launchmon/internal/tools/jobsnap"
)

// fig5Row is one Jobsnap measurement: total operation time and the
// init→attachAndSpawn (LaunchMON) share, per the paper's two series.
type fig5Row struct {
	Daemons int
	Tasks   int
	Total   time.Duration
	Launch  time.Duration // init → attachAndSpawnDaemons
	Lines   int
}

// figure5Scales are the daemon counts of the Jobsnap experiment
// (8 tasks per daemon; the paper sweeps to 1024 daemons / 8192 tasks).
var figure5Scales = []int{64, 128, 256, 512, 768, 1024}

// figure5 regenerates the Jobsnap performance series.
func figure5() ([]fig5Row, error) {
	return figure5At(figure5Scales)
}

func figure5At(scales []int) ([]fig5Row, error) {
	const tasksPerDaemon = 8
	rows := make([]fig5Row, 0, len(scales))
	for _, n := range scales {
		res, err := measureJobsnap(n, tasksPerDaemon, 0)
		if err != nil {
			return nil, fmt.Errorf("figure5 at %d daemons: %w", n, err)
		}
		rows = append(rows, fig5Row{
			Daemons: n, Tasks: n * tasksPerDaemon,
			Total: res.Total, Launch: res.LaunchTime, Lines: res.Lines,
		})
	}
	return rows, nil
}

// measureJobsnap snapshots a running job of daemons × tasksPerDaemon tasks
// over a collection tree of the given fanout (0 = flat, the paper's
// measured configuration) and checks the report is complete.
func measureJobsnap(daemons, tasksPerDaemon, fanout int) (jobsnap.Result, error) {
	var res jobsnap.Result
	_, err := Scenario{Nodes: daemons, FE: func(r *Run) error {
		j, err := r.startJob("mpiapp", daemons, tasksPerDaemon, 5*time.Second)
		if err != nil {
			return err
		}
		res, err = jobsnap.RunWithOptions(r.P, j.ID(), jobsnap.RunOptions{Fanout: fanout})
		return err
	}}.Run()
	if err == nil && res.Lines != daemons*tasksPerDaemon {
		err = fmt.Errorf("report has %d lines, want %d", res.Lines, daemons*tasksPerDaemon)
	}
	return res, err
}

// printFigure5 renders the two series of the paper's chart.
func printFigure5(w io.Writer, rows []fig5Row) {
	fmt.Fprintln(w, "Figure 5 — Jobsnap performance (8 tasks/daemon)")
	fmt.Fprintln(w, "daemons  tasks   total      init→attachAndSpawn")
	for _, r := range rows {
		fmt.Fprintf(w, "%7d %6d %9.3fs %9.3fs\n", r.Daemons, r.Tasks, r.Total.Seconds(), r.Launch.Seconds())
	}
}
