// Command lmonbench regenerates the paper's evaluation tables and figures
// on the simulated cluster. With no flags it runs everything.
//
// Usage:
//
//	lmonbench [-fig 3|5|6] [-table 1] [-ablations] [-failure] [-collective] [-contention] [-launch] [-million] [-mem] [-mw] [-obs] [-trace FILE] [-maxk N] [-smoke] [-json] [-all] [-cpuprofile FILE] [-memprofile FILE]
//
// With -json, each experiment additionally writes its rows as
// BENCH_<name>.json in the working directory (machine-readable results
// for CI and regression tracking). -smoke runs a fast reduced-scale
// subset that exercises the bench rig end to end. -maxk caps the daemon
// counts of the -failure/-collective/-contention/-launch/-mw sweeps (CI
// runs -launch, -mw and -contention with -maxk 16384). A row whose
// predicted host footprint exceeds GOMEMLIMIT (bench.DefaultMemLimit when
// unset) is not run — lmonbench prints a skipped-row line with the
// predicted bytes — which caps the store-forward launch row, K private
// full-table copies, at K=4096 by default.
//
// -obs adds the observability rider to the -launch sweep (a second
// obs-on pass per row, checked against the wire-byte and drift
// invariants). -trace FILE runs one obs-on launch at K=1024 (capped by
// -maxk) and writes its Chrome/Perfetto trace-event JSON to FILE plus
// the harvested metrics snapshot to FILE.metrics.json; load the trace in
// ui.perfetto.dev or chrome://tracing.
//
// -cpuprofile FILE and -memprofile FILE profile the host side of whatever
// the other flags select (runtime/pprof: a CPU profile of the whole run,
// and the "allocs" profile — every allocation since start — written at
// exit); read them with `go tool pprof -top [-sample_index=alloc_space]`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"launchmon/internal/bench"
)

var writeJSON bool

// emit optionally writes rows as BENCH_<name>.json.
func emit(name string, rows any) error {
	if !writeJSON {
		return nil
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	path := fmt.Sprintf("BENCH_%s.json", name)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func main() {
	fig := flag.Int("fig", 0, "regenerate one figure (3, 5 or 6)")
	table := flag.Int("table", 0, "regenerate one table (1)")
	ablations := flag.Bool("ablations", false, "run the ablation benches")
	failure := flag.Bool("failure", false, "run the failure-detection ablation (K up to 16384)")
	collective := flag.Bool("collective", false, "run the collective tool-data-plane ablation (flat vs tree, K up to 16384)")
	contention := flag.Bool("contention", false, "run the collective contention ablation (lockstep serialization vs concurrent tagged streams, K up to 16384)")
	launch := flag.Bool("launch", false, "run the launch-pipeline ablation (store-and-forward/full-retention vs cut-through/rank-sliced seed, K up to 16384)")
	million := flag.Bool("million", false, "run the million-daemon launch sweep (rank-sliced cut-through on a lean rig, K=2^20)")
	mem := flag.Bool("mem", false, "with -launch/-million/-smoke, also print the per-role peak RPDTAB memory table")
	mwpipe := flag.Bool("mw", false, "run the middleware launch-pipeline sweep (cut-through MW seed, K up to 16384)")
	obsRider := flag.Bool("obs", false, "with -launch/-smoke, add the observability rider (obs-on second pass + invariant checks)")
	tracePath := flag.String("trace", "", "run one obs-on launch at K=1024 (capped by -maxk) and write its Perfetto trace JSON to this file (+ .metrics.json)")
	maxk := flag.Int("maxk", 0, "cap the daemon counts of the failure/collective/contention/launch/mw sweeps (0 = full scale)")
	smoke := flag.Bool("smoke", false, "run a fast reduced-scale subset (CI)")
	all := flag.Bool("all", false, "run every experiment")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write the allocation profile (every allocation since start) to this file at exit")
	flag.BoolVar(&writeJSON, "json", false, "also write results as BENCH_<name>.json")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmonbench: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()

	if !*ablations && !*failure && !*collective && !*contention && !*launch && !*million && !*mwpipe && !*smoke && *fig == 0 && *table == 0 && *tracePath == "" {
		*all = true
	}
	// A row must fit the soft memory limit the runtime was given; without
	// one, the default row budget.
	memLimit := debug.SetMemoryLimit(-1)
	if memLimit == math.MaxInt64 {
		memLimit = bench.DefaultMemLimit
	}
	capped := func(sweep string, scales []int, predict func(k int) int64) []int {
		return capScales(os.Stdout, sweep, scales, *maxk, memLimit, predict)
	}

	run := func(name string, fn func() error) {
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "lmonbench: %s: %v\n", name, err)
			stopProfiles() // os.Exit skips the deferred call
			os.Exit(1)
		}
		fmt.Println()
	}

	if *tracePath != "" {
		run("trace export", func() error {
			k := 1024
			if *maxk > 0 && *maxk < k {
				k = *maxk
			}
			return runTrace(*tracePath, k)
		})
	}

	if *smoke {
		run("smoke", func() error { return runSmoke(*mem, *obsRider) })
		return
	}

	if *all || *fig == 3 {
		run("figure 3", func() error {
			rows, err := bench.Figure3()
			if err != nil {
				return err
			}
			bench.PrintFigure3(os.Stdout, rows)
			return emit("figure3", rows)
		})
	}
	if *all || *fig == 5 {
		run("figure 5", func() error {
			rows, err := bench.Figure5()
			if err != nil {
				return err
			}
			bench.PrintFigure5(os.Stdout, rows)
			return emit("figure5", rows)
		})
	}
	if *all || *fig == 6 {
		run("figure 6", func() error {
			rows, err := bench.Figure6()
			if err != nil {
				return err
			}
			bench.PrintFigure6(os.Stdout, rows)
			return emit("figure6", rows)
		})
	}
	if *all || *table == 1 {
		run("table 1", func() error {
			rows, err := bench.Table1()
			if err != nil {
				return err
			}
			bench.PrintTable1(os.Stdout, rows)
			return emit("table1", rows)
		})
	}
	if *all || *ablations {
		run("ablations", func() error {
			bgl, err := bench.BGLAblation()
			if err != nil {
				return err
			}
			fan, err := bench.AblationFanout()
			if err != nil {
				return err
			}
			pig, err := bench.AblationPiggyback()
			if err != nil {
				return err
			}
			dbg, err := bench.AblationDebugEvents()
			if err != nil {
				return err
			}
			bench.PrintAblations(os.Stdout, bgl, fan, pig, dbg)
			pt, err := bench.AblationProctab()
			if err != nil {
				return err
			}
			fmt.Println()
			bench.PrintProctabAblation(os.Stdout, pt)
			jt, err := bench.AblationJobsnapTree()
			if err != nil {
				return err
			}
			fmt.Println()
			bench.PrintJobsnapTree(os.Stdout, jt)
			cc, err := bench.ConcurrentSessions(bench.ConcurrentSessionOpts{}, bench.ConcurrentScales)
			if err != nil {
				return err
			}
			fmt.Println()
			bench.PrintConcurrent(os.Stdout, cc)
			if err := emit("ablation_bgl", bgl); err != nil {
				return err
			}
			if err := emit("ablation_fanout", fan); err != nil {
				return err
			}
			if err := emit("ablation_piggyback", pig); err != nil {
				return err
			}
			if err := emit("ablation_debug_events", dbg); err != nil {
				return err
			}
			if err := emit("ablation_proctab", pt); err != nil {
				return err
			}
			if err := emit("ablation_jobsnap_tree", jt); err != nil {
				return err
			}
			return emit("ablation_concurrent", cc)
		})
	}
	if *all || *collective {
		run("collective", func() error {
			rows, err := bench.CollectiveAblation(bench.CollectiveOpts{}, capped("collective", bench.CollectiveScales, bench.SimFootprint))
			if err != nil {
				return err
			}
			bench.PrintCollective(os.Stdout, rows)
			return emit("collective", rows)
		})
	}
	if *all || *contention {
		run("contention", func() error {
			rows, err := bench.ContentionAblation(bench.ContentionOpts{}, capped("contention", bench.ContentionScales, bench.SimFootprint))
			if err != nil {
				return err
			}
			bench.PrintContention(os.Stdout, rows)
			return emit("contention", rows)
		})
	}
	if *all || *launch {
		run("launch pipeline", func() error {
			scales := capped("launch cut-through/sliced", bench.LaunchScales, bench.SimFootprint)
			fullScales := capped("launch store-forward/full", scales, func(k int) int64 {
				return bench.SimFootprint(k) + bench.FullTableFootprint(k, 1)
			})
			rows, err := bench.LaunchPipeline(bench.LaunchPipeOpts{Obs: *obsRider}, scales, fullScales)
			if err != nil {
				return err
			}
			bench.PrintLaunchPipeline(os.Stdout, rows)
			if *mem {
				fmt.Println()
				bench.PrintLaunchMem(os.Stdout, rows)
			}
			if *obsRider {
				fmt.Println()
				bench.PrintLaunchObs(os.Stdout, rows)
				if err := bench.CheckObsInvariants(rows, 0); err != nil {
					return err
				}
			}
			return emit("launchpipe", rows)
		})
	}
	if *million {
		run("million launch", func() error {
			// The million sweep's peak heap is ~everything live at once (all
			// K daemons coexist until the seed drains), so the default GOGC
			// headroom nearly doubles RSS for no reclaim. Trade GC CPU for
			// the 16 GB CI budget; GOGC set in the environment wins.
			if os.Getenv("GOGC") == "" {
				defer debug.SetGCPercent(debug.SetGCPercent(30))
			}
			// A soft memory limit backstops the GOGC slack: near the
			// limit the GC collects proportionally harder, trading CPU
			// for the heap headroom GOGC=30 would otherwise keep. 13 GiB
			// leaves the full-scale run's fixed costs (a million 4 KB
			// goroutine stacks plus their descriptors, plus ~7 GB of live
			// fabric state) inside the 16 GB CI budget with margin; a
			// GOMEMLIMIT set in the environment wins. Note the limit
			// bounds what the runtime holds, not the process RSS a
			// memory-gated runner sees: freed pages returned with
			// MADV_FREE stay resident until the host is under pressure,
			// so CI additionally runs this step with
			// GODEBUG=madvdontneed=1 to make VmHWM track the limit.
			if os.Getenv("GOMEMLIMIT") == "" {
				defer debug.SetMemoryLimit(debug.SetMemoryLimit(13 << 30))
			}
			rows, err := bench.LaunchMillion(bench.MillionOpts{}, millionScales(bench.MillionScales, *maxk))
			if err != nil {
				return err
			}
			bench.PrintLaunchPipeline(os.Stdout, rows)
			if *mem {
				fmt.Println()
				bench.PrintLaunchMem(os.Stdout, rows)
			}
			fmt.Println()
			bench.PrintMillionCost(os.Stdout, rows)
			return emit("launch_million", rows)
		})
	}
	if *all || *mwpipe {
		run("mw pipeline", func() error {
			rows, err := bench.MWPipeline(bench.MWPipeOpts{}, capped("mw", bench.MWScales, bench.SimFootprint))
			if err != nil {
				return err
			}
			bench.PrintMWPipeline(os.Stdout, rows)
			return emit("mwpipe", rows)
		})
	}
	if *all || *failure {
		run("failure detection", func() error {
			rows, err := bench.FailureDetection(bench.FailureOpts{Silent: true}, capped("failure", bench.FailureScales, bench.SimFootprint))
			if err != nil {
				return err
			}
			bench.PrintFailure(os.Stdout, rows)
			if err := emit("failure_detection", rows); err != nil {
				return err
			}
			overhead, err := bench.HeartbeatOverhead(256, bench.OverheadPeriods, 30*time.Second)
			if err != nil {
				return err
			}
			fmt.Println()
			bench.PrintOverhead(os.Stdout, overhead)
			return emit("heartbeat_overhead", overhead)
		})
	}
}

// startProfiles starts the CPU profile (cpuPath) and arranges the
// allocation profile (memPath); empty paths select nothing. The returned
// stop function finishes both and must run before the process exits.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "lmonbench: cpu profile: %v\n", err)
			}
		}
		if memPath != "" {
			if err := writeAllocProfile(memPath); err != nil {
				fmt.Fprintf(os.Stderr, "lmonbench: allocation profile: %v\n", err)
			}
		}
	}, nil
}

// writeAllocProfile writes the "allocs" profile, after a GC so that it
// covers everything allocated up to now.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// capScales filters a sweep's daemon counts under -maxk (0 = no cap), then
// drops — with one line printed to w each — the points whose predicted
// host footprint exceeds the memory limit.
func capScales(w io.Writer, sweep string, scales []int, maxk int, memLimit int64, predict func(k int) int64) []int {
	out := make([]int, 0, len(scales))
	for _, k := range scales {
		if maxk > 0 && k > maxk {
			continue
		}
		if need := predict(k); need > memLimit {
			fmt.Fprintf(w, "skipped %s K=%d: predicted footprint %d B exceeds the %d B memory limit (raise GOMEMLIMIT to run it)\n",
				sweep, k, need, memLimit)
			continue
		}
		out = append(out, k)
	}
	return out
}

// millionScales applies -maxk to the million sweep, which lowers the sweep
// point instead of filtering it away: the sweep has exactly one scale, and
// a reduced run should still produce a row.
func millionScales(scales []int, maxk int) []int {
	if maxk > 0 && maxk < scales[len(scales)-1] {
		return []int{maxk}
	}
	return scales
}

// runTrace exports one obs-on launch as a Perfetto trace (verified to
// reproduce the monotone launch mark chains before it is written) plus
// the session's harvested metrics snapshot.
func runTrace(path string, k int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	res, err := bench.TraceLaunch(k, 0, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	metrics, err := json.MarshalIndent(res.Metrics, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path+".metrics.json", append(metrics, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (K=%d, %d spans, %d instants, %d B) and %s.metrics.json\n",
		path, res.Daemons, res.Spans, res.Instants, res.TraceBytes, path)
	return nil
}

// runSmoke exercises the bench rig end to end at reduced scale: a
// concurrent-session sweep and a failure-detection sweep small enough for
// a CI step, so bench-rig regressions fail the build.
func runSmoke(mem, obsRider bool) error {
	cc, err := bench.ConcurrentSessions(bench.ConcurrentSessionOpts{NodesEach: 4, TasksPerNode: 2}, []int{1, 4})
	if err != nil {
		return err
	}
	bench.PrintConcurrent(os.Stdout, cc)
	if err := emit("smoke_concurrent", cc); err != nil {
		return err
	}
	rows, err := bench.FailureDetection(bench.FailureOpts{
		Period: 100 * time.Millisecond, Fanout: 4, Silent: true,
	}, []int{8, 32})
	if err != nil {
		return err
	}
	fmt.Println()
	bench.PrintFailure(os.Stdout, rows)
	if err := emit("smoke_failure_detection", rows); err != nil {
		return err
	}
	overhead, err := bench.HeartbeatOverhead(8, []time.Duration{500 * time.Millisecond}, 5*time.Second)
	if err != nil {
		return err
	}
	fmt.Println()
	bench.PrintOverhead(os.Stdout, overhead)
	if err := emit("smoke_heartbeat_overhead", overhead); err != nil {
		return err
	}
	cr, err := bench.CollectiveAblation(bench.CollectiveOpts{PayloadB: 128, Fanout: 4}, []int{8, 32})
	if err != nil {
		return err
	}
	fmt.Println()
	bench.PrintCollective(os.Stdout, cr)
	if err := emit("smoke_collective", cr); err != nil {
		return err
	}
	ct, err := bench.ContentionAblation(bench.ContentionOpts{PayloadB: 128, Fanout: 4}, []int{8, 32})
	if err != nil {
		return err
	}
	fmt.Println()
	bench.PrintContention(os.Stdout, ct)
	if err := emit("smoke_contention", ct); err != nil {
		return err
	}
	lp, err := bench.LaunchPipeline(bench.LaunchPipeOpts{Fanout: 4, Obs: obsRider}, []int{8, 32}, []int{8, 32})
	if err != nil {
		return err
	}
	fmt.Println()
	bench.PrintLaunchPipeline(os.Stdout, lp)
	if mem {
		fmt.Println()
		bench.PrintLaunchMem(os.Stdout, lp)
	}
	if obsRider {
		fmt.Println()
		bench.PrintLaunchObs(os.Stdout, lp)
		if err := bench.CheckObsInvariants(lp, 4); err != nil {
			return err
		}
	}
	if err := emit("smoke_launchpipe", lp); err != nil {
		return err
	}
	ml, err := bench.LaunchMillion(bench.MillionOpts{Fanout: 4}, []int{64})
	if err != nil {
		return err
	}
	fmt.Println()
	bench.PrintLaunchPipeline(os.Stdout, ml)
	fmt.Println()
	bench.PrintMillionCost(os.Stdout, ml)
	if err := emit("smoke_launch_million", ml); err != nil {
		return err
	}
	mp, err := bench.MWPipeline(bench.MWPipeOpts{
		JobNodes: 4, TasksPerNode: 4, Fanout: 4, ChunkBytes: 256,
	}, []int{8, 32})
	if err != nil {
		return err
	}
	fmt.Println()
	bench.PrintMWPipeline(os.Stdout, mp)
	return emit("smoke_mwpipe", mp)
}
