package bench

import (
	"fmt"
	"io"

	"launchmon/internal/core"
	"launchmon/internal/perfmodel"
	"launchmon/internal/rm"
)

// fig3Row is one scale point of the Figure 3 reproduction: the measured
// launchAndSpawn breakdown, the analytic model's prediction, and the
// relative error of the modeled total.
type fig3Row struct {
	Daemons  int
	Tasks    int
	Measured perfmodel.Breakdown
	Model    perfmodel.Breakdown
	ErrPct   float64
}

// figure3Scales are the paper's daemon counts (8 MPI tasks per daemon,
// one daemon per node, 16..128 step 16).
var figure3Scales = []int{16, 32, 48, 64, 80, 96, 112, 128}

// figure3CalibrationScales are the small scales the model is fitted on;
// the remaining scales are pure prediction (the paper fits T(op) "at small
// scales and then fit models for them").
var figure3CalibrationScales = []int{16, 32, 48}

// measureLaunchAndSpawn runs one launchAndSpawn at the given scale and
// decomposes its timeline.
func measureLaunchAndSpawn(daemons, tasksPerDaemon int) (perfmodel.Breakdown, error) {
	return breakdown(Scenario{Nodes: daemons, Opts: core.Options{
		Job:    rm.JobSpec{Exe: "app", Nodes: daemons, TasksPerNode: tasksPerDaemon},
		Daemon: rm.DaemonSpec{Exe: "f3_be"},
		// Figure 3 reproduces the paper's serialized pipeline, where no
		// handshake time overlaps the spawn (Breakdown.Overlap is 0);
		// the fan-out ablation decomposes cut-through launches.
		SeedMode: core.SeedStoreForward,
	}})
}

// figure3 regenerates the modeled-vs-measured launchAndSpawn comparison:
// it measures every scale, fits the analytic model on the calibration
// scales only, and reports predictions alongside measurements.
func figure3() ([]fig3Row, error) {
	const tasksPerDaemon = 8
	measured := make(map[int]perfmodel.Breakdown, len(figure3Scales))
	for _, n := range figure3Scales {
		b, err := measureLaunchAndSpawn(n, tasksPerDaemon)
		if err != nil {
			return nil, fmt.Errorf("figure3 at %d daemons: %w", n, err)
		}
		measured[n] = b
	}
	var pts []perfmodel.Point
	for _, n := range figure3CalibrationScales {
		pts = append(pts, perfmodel.Point{Nodes: n, Tasks: n * tasksPerDaemon, B: measured[n]})
	}
	model, err := perfmodel.Fit(pts)
	if err != nil {
		return nil, err
	}
	rows := make([]fig3Row, 0, len(figure3Scales))
	for _, n := range figure3Scales {
		pred := model.Predict(n, n*tasksPerDaemon)
		rows = append(rows, fig3Row{
			Daemons:  n,
			Tasks:    n * tasksPerDaemon,
			Measured: measured[n],
			Model:    pred,
			ErrPct:   perfmodel.ErrorPct(pred, measured[n]),
		})
	}
	return rows, nil
}

// printFigure3 renders the rows like the paper's stacked chart, one line
// per scale with the component columns.
func printFigure3(w io.Writer, rows []fig3Row) {
	fmt.Fprintln(w, "Figure 3 — launchAndSpawn: modeled vs measured (8 tasks/daemon)")
	fmt.Fprintln(w, "daemons  tasks  T(job)   T(dmn+setup) T(coll)  tracing  fetch    other    measured  model    err%   lmon%")
	for _, r := range rows {
		m := r.Measured
		fmt.Fprintf(w, "%7d %6d %8.3f %12.3f %8.3f %8.3f %8.3f %8.3f %9.3f %8.3f %6.1f %6.1f\n",
			r.Daemons, r.Tasks,
			m.Job.Seconds(), (m.DaemonSpawn + m.Setup).Seconds(), m.Collective.Seconds(),
			m.Tracing.Seconds(), m.Fetch.Seconds(), m.Other.Seconds(),
			m.Total.Seconds(), r.Model.Total.Seconds(), r.ErrPct, 100*m.LaunchMONShare())
	}
}
