package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Params is what one invocation asks of the experiments it runs.
type Params struct {
	Smoke    bool      // the reduced scales and options of the CI smoke sweep
	MaxK     int       // cap on the daemon counts of the K-scaled sweeps (0 = full scale)
	MemLimit int64     // a sweep point predicted to need more host memory is skipped
	Mem, Obs bool      // launch sweeps: per-role memory table, observability rider
	Arg      string    // value of the experiment's selecting flag (the -trace file)
	Out      io.Writer // tables and skipped-point lines
}

// Experiment is one block of lmonbench output: the tables one selecting
// flag value regenerates together.
type Experiment struct {
	Name string // names the block in error messages
	// Flag selects the experiment when set to Arg: "true" makes it a bool
	// flag, a number an int flag shared by the rows that differ in it, and
	// "" a string flag that selects when non-empty and is passed on as
	// Params.Arg. Help is the flag's usage, on the first row that names it.
	Flag, Arg, Help string
	// OwnFlagOnly keeps the experiment out of -all (and so out of a bare
	// lmonbench): only its own flag selects it.
	OwnFlagOnly bool
	Tables      []Table
}

// Table is one result table: a sweep, how to print it, and the stem of the
// BENCH_<stem>.json it is written to.
type Table struct {
	Stem      string // "" = never written as JSON
	SmokeStem string // "" = not part of the smoke sweep
	// Scales are the sweep's daemon counts (nil for a fixed experiment) and
	// Smoke their reduced form. With a Predict, the full scales are capped
	// by Params.MaxK and by the predicted host footprint against
	// Params.MemLimit, each skipped point printed under the Sweep label.
	Sweep   string
	Scales  []int
	Smoke   []int
	Predict func(k int) int64

	run func(p Params, scales []int) (rows any, n int, err error)
	// print renders the rows; an error (a violated invariant of the sweep)
	// keeps the rows from being written as JSON.
	print func(w io.Writer, rows any, p Params) error
}

// result is one table's rows as run.
type result struct {
	Stem string
	Rows any // a slice of the table's row type
	N    int // len(Rows)
}

// measure runs the table at the scales p selects.
func (t Table) measure(p Params) (result, error) {
	res, scales := result{Stem: t.Stem}, t.Scales
	if p.Smoke {
		res.Stem, scales = t.SmokeStem, t.Smoke
	} else if t.Predict != nil {
		scales = p.capScales(t.Sweep, scales, t.Predict)
	}
	var err error
	res.Rows, res.N, err = t.run(p, scales)
	return res, err
}

// Run regenerates the experiment: every table is measured and printed,
// blank-line separated, then each is handed to emit.
func (e Experiment) Run(p Params, emit func(stem string, rows any) error) error {
	var done []result
	for _, t := range e.Tables {
		if p.Smoke && t.SmokeStem == "" {
			continue
		}
		res, err := t.measure(p)
		if err != nil {
			return err
		}
		if p.Smoke && res.N == 0 {
			return fmt.Errorf("smoke table %s has no rows", res.Stem)
		}
		if len(done) > 0 {
			fmt.Fprintln(p.Out)
		}
		if err := t.print(p.Out, res.Rows, p); err != nil {
			return err
		}
		done = append(done, res)
	}
	for _, res := range done {
		if res.Stem != "" {
			if err := emit(res.Stem, res.Rows); err != nil {
				return err
			}
		}
	}
	return nil
}

// SmokeStems lists the JSON stems the experiment writes in a smoke run.
func (e Experiment) SmokeStems() []string {
	var stems []string
	for _, t := range e.Tables {
		if t.SmokeStem != "" {
			stems = append(stems, t.SmokeStem)
		}
	}
	return stems
}

// capScales filters a sweep's daemon counts under MaxK (0 = no cap), then
// drops — with one line printed to Out each — the points whose predicted
// host footprint exceeds the memory limit.
func (p Params) capScales(sweep string, scales []int, predict func(k int) int64) []int {
	out := make([]int, 0, len(scales))
	for _, k := range scales {
		if p.MaxK > 0 && k > p.MaxK {
			continue
		}
		if need := predict(k); need > p.MemLimit {
			fmt.Fprintf(p.Out, "skipped %s K=%d: predicted footprint %d B exceeds the %d B memory limit (raise GOMEMLIMIT to run it)\n",
				sweep, k, need, p.MemLimit)
			continue
		}
		out = append(out, k)
	}
	return out
}

// lowerScales applies MaxK to a sweep with exactly one point, which it
// lowers instead of filtering away: a reduced run should still produce a
// row.
func (p Params) lowerScales(scales []int) []int {
	if !p.Smoke && p.MaxK > 0 && p.MaxK < scales[0] {
		return []int{p.MaxK}
	}
	return scales
}

// sweep measures one row per scale and names the point that failed.
func sweep[R any](what string, scales []int, measure func(k int) (R, error)) ([]R, error) {
	rows := make([]R, 0, len(scales))
	for _, k := range scales {
		row, err := measure(k)
		if err != nil {
			return nil, fmt.Errorf("%s at K=%d: %w", what, k, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// table binds a Table's typed run and print functions.
func table[R any](t Table, run func(p Params, scales []int) ([]R, error), print func(w io.Writer, rows []R, p Params) error) Table {
	t.run = func(p Params, scales []int) (any, int, error) {
		rows, err := run(p, scales)
		return rows, len(rows), err
	}
	t.print = func(w io.Writer, rows any, p Params) error { return print(w, rows.([]R), p) }
	return t
}

// sweepTable is a table whose run takes the sweep's options — full, or
// smoke under Params.Smoke — and scales, and whose printer has no riders.
func sweepTable[R, O any](t Table, full, smoke O, run func(O, []int) ([]R, error), print func(io.Writer, []R)) Table {
	return table(t, func(p Params, scales []int) ([]R, error) {
		if p.Smoke {
			return run(smoke, scales)
		}
		return run(full, scales)
	}, plain(print))
}

// fixedTable is a table with no scales or options: its smoke form, if it
// has a SmokeStem, is the table itself.
func fixedTable[R any](t Table, run func() ([]R, error), print func(io.Writer, []R)) Table {
	return table(t, func(Params, []int) ([]R, error) { return run() }, plain(print))
}

// plain adapts a printer that has no riders and checks nothing.
func plain[R any](print func(io.Writer, []R)) func(io.Writer, []R, Params) error {
	return func(w io.Writer, rows []R, _ Params) error {
		print(w, rows)
		return nil
	}
}

// sweepScales are the daemon counts of the K-scaled sweeps.
var sweepScales = []int{64, 1024, 16384}

// kSweep is the shape those sweeps share: capped by -maxk and by the
// simulator's footprint under the sweep label, {8, 32} in the smoke sweep.
func kSweep(stem, sweep string) Table {
	return Table{Stem: stem, SmokeStem: "smoke_" + stem, Sweep: sweep, Scales: sweepScales, Smoke: []int{8, 32}, Predict: simFootprint}
}

// launchOpts are the launch-pipeline sweep's options; its smoke fanout is 4.
func launchOpts(p Params) launchPipeOpts {
	o := launchPipeOpts{TasksPerNode: 1, Fanout: 32, Obs: p.Obs}
	if p.Smoke {
		o.Fanout = 4
	}
	return o
}

// runLaunch is the launch-pipeline sweep: the store-forward rows are capped
// a second time, by their K private full-table copies.
func runLaunch(p Params, scales []int) ([]launchPipeRow, error) {
	fullScales := scales
	if !p.Smoke {
		fullScales = p.capScales("launch store-forward/full", scales, func(k int) int64 {
			return simFootprint(k) + fullTableFootprint(k, 1)
		})
	}
	return launchPipeline(launchOpts(p), scales, fullScales)
}

// printLaunch renders a launch sweep with the riders p asks for, and
// holds the obs rider's rows to its invariants.
func printLaunch(w io.Writer, rows []launchPipeRow, p Params) error {
	printLaunchPipeline(w, rows)
	if p.Mem {
		fmt.Fprintln(w)
		printLaunchMem(w, rows)
	}
	if p.Obs {
		fmt.Fprintln(w)
		printLaunchObs(w, rows)
		return checkObsInvariants(rows, launchOpts(p).Fanout)
	}
	return nil
}

// runMillion is the million sweep: one point, lowered by -maxk, on a lean
// rig at fanout 64 (4 in the smoke sweep, which also leaves the GC alone).
func runMillion(p Params, scales []int) ([]launchPipeRow, error) {
	o := launchPipeOpts{TasksPerNode: 1, Fanout: 4}
	if !p.Smoke {
		o.Fanout = 64
		defer boundMillionHeap()()
	}
	return launchMillion(o, p.lowerScales(scales))
}

func printMillion(w io.Writer, rows []launchPipeRow, p Params) error {
	printLaunchPipeline(w, rows)
	// The smoke sweep has never printed this table's -mem rider, and its
	// stdout is diffed like its JSON.
	if p.Mem && !p.Smoke {
		fmt.Fprintln(w)
		printLaunchMem(w, rows)
	}
	fmt.Fprintln(w)
	printMillionCost(w, rows)
	return nil
}

func runOverhead(p Params, _ []int) ([]overheadRow, error) {
	if p.Smoke {
		return heartbeatOverhead(8, []time.Duration{500 * time.Millisecond}, 5*time.Second)
	}
	return heartbeatOverhead(256, overheadPeriods, 30*time.Second)
}

// Experiments is every experiment lmonbench can run, in output order; the
// smoke sweep is the tables with a SmokeStem, in the same order. Adding an
// experiment is one row here; adding a sweep point, one number.
var Experiments = []Experiment{
	{Name: "trace export", Flag: "trace", OwnFlagOnly: true,
		Help:   "run one obs-on launch at K=1024 (capped by -maxk) and write its Perfetto trace JSON to this file (+ .metrics.json)",
		Tables: []Table{table(Table{Scales: []int{1024}}, runTrace, plain(printTrace))}},
	{Name: "figure 3", Flag: "fig", Arg: "3", Help: "regenerate one figure (3, 5 or 6)",
		Tables: []Table{fixedTable(Table{Stem: "figure3", SmokeStem: "smoke_figure3"}, figure3, printFigure3)}},
	{Name: "figure 5", Flag: "fig", Arg: "5",
		Tables: []Table{fixedTable(Table{Stem: "figure5"}, figure5, printFigure5)}},
	{Name: "figure 6", Flag: "fig", Arg: "6",
		Tables: []Table{fixedTable(Table{Stem: "figure6"}, figure6, printFigure6)}},
	{Name: "table 1", Flag: "table", Arg: "1", Help: "regenerate one table (1)",
		Tables: []Table{fixedTable(Table{Stem: "table1"}, table1, printTable1)}},
	{Name: "ablations", Flag: "ablations", Arg: "true", Help: "run the ablation benches",
		Tables: []Table{
			fixedTable(Table{Stem: "ablation_bgl"}, bglAblation, printBGL),
			fixedTable(Table{Stem: "ablation_fanout", SmokeStem: "smoke_ablation_fanout"}, ablationFanout, printFanout),
			fixedTable(Table{Stem: "ablation_piggyback"}, ablationPiggyback, printPiggyback),
			fixedTable(Table{Stem: "ablation_debug_events"}, ablationDebugEvents, printDebugEvents),
			fixedTable(Table{Stem: "ablation_proctab"}, ablationProctab, printProctabAblation),
			fixedTable(Table{Stem: "ablation_jobsnap_tree"}, ablationJobsnapTree, printJobsnapTree),
			sweepTable(Table{Stem: "ablation_concurrent", SmokeStem: "smoke_concurrent", Scales: concurrentScales, Smoke: []int{1, 4}},
				concurrentSessionOpts{NodesEach: 16, TasksPerNode: 8}, concurrentSessionOpts{NodesEach: 4, TasksPerNode: 2},
				concurrentSessions, printConcurrent),
		}},
	{Name: "failure detection", Flag: "failure", Arg: "true", Help: "run the failure-detection ablation (K up to 16384)",
		Tables: []Table{sweepTable(kSweep("failure_detection", "failure"),
			failureOpts{Period: 500 * time.Millisecond, Miss: 3, Fanout: 32, Silent: true},
			failureOpts{Period: 100 * time.Millisecond, Miss: 3, Fanout: 4, Silent: true},
			failureDetection, printFailure)}},
	{Name: "heartbeat overhead", Flag: "failure", Arg: "true",
		Tables: []Table{table(Table{Stem: "heartbeat_overhead", SmokeStem: "smoke_heartbeat_overhead"}, runOverhead, plain(printOverhead))}},
	{Name: "collective", Flag: "collective", Arg: "true",
		Help: "run the collective tool-data-plane ablation (flat vs tree, K up to 16384)",
		Tables: []Table{sweepTable(kSweep("collective", "collective"),
			collectiveOpts{PayloadB: 256, Fanout: 32}, collectiveOpts{PayloadB: 128, Fanout: 4},
			collectiveAblation, printCollective)}},
	{Name: "contention", Flag: "contention", Arg: "true",
		Help: "run the collective contention ablation (lockstep serialization vs concurrent tagged streams, K up to 16384)",
		Tables: []Table{sweepTable(kSweep("contention", "contention"),
			contentionOpts{Tools: 4, PayloadB: 256, Fanout: 32}, contentionOpts{Tools: 4, PayloadB: 128, Fanout: 4},
			contentionAblation, printContention)}},
	{Name: "launch pipeline", Flag: "launch", Arg: "true",
		Help:   "run the launch-pipeline ablation (store-and-forward/full-retention vs cut-through/rank-sliced seed, K up to 16384)",
		Tables: []Table{table(kSweep("launchpipe", "launch cut-through/sliced"), runLaunch, printLaunch)}},
	{Name: "million launch", Flag: "million", Arg: "true", OwnFlagOnly: true,
		Help: "run the million-daemon launch sweep (rank-sliced cut-through on a lean rig, K=2^20)",
		Tables: []Table{table(Table{Stem: "launch_million", SmokeStem: "smoke_launch_million", Scales: millionScales, Smoke: []int{64}},
			runMillion, printMillion)}},
	{Name: "mw pipeline", Flag: "mw", Arg: "true",
		Help: "run the middleware launch-pipeline sweep (cut-through MW seed, K up to 16384)",
		Tables: []Table{sweepTable(kSweep("mwpipe", "mw"),
			mwPipeOpts{JobNodes: 64, TasksPerNode: 16, Fanout: 32, ChunkBytes: 4 << 10},
			mwPipeOpts{JobNodes: 4, TasksPerNode: 4, Fanout: 4, ChunkBytes: 256},
			mwPipeline, printMWPipeline)}},
}

// runTrace exports one obs-on launch as a Perfetto trace at p.Arg (verified
// to reproduce the monotone launch mark chains before it is written) plus
// the session's harvested metrics snapshot beside it.
func runTrace(p Params, scales []int) ([]traceResult, error) {
	f, err := os.Create(p.Arg)
	if err != nil {
		return nil, err
	}
	res, err := traceLaunch(p.lowerScales(scales)[0], 32, f)
	res.Path = p.Arg
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	metrics, err := json.MarshalIndent(res.Metrics, "", "  ")
	if err != nil {
		return nil, err
	}
	return []traceResult{res}, os.WriteFile(p.Arg+".metrics.json", append(metrics, '\n'), 0o644)
}
