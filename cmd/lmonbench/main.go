// Command lmonbench regenerates the paper's evaluation tables and figures
// on the simulated cluster. With no flags it runs everything -all runs:
// every experiment except the million-daemon sweep and the trace export,
// which only their own flags select.
//
// Usage:
//
//	lmonbench [-fig 3|5|6] [-table 1] [-ablations] [-failure] [-collective] [-contention] [-launch] [-million] [-mem] [-mw] [-obs] [-trace FILE] [-maxk N] [-smoke] [-json] [-all] [-cpuprofile FILE] [-memprofile FILE] [-blockprofile FILE] [-mutexprofile FILE]
//
// The experiments, their selecting flags and their scales are the rows of
// bench.Experiments. With -json, each experiment additionally writes its
// rows as BENCH_<name>.json in the working directory (machine-readable
// results for CI and regression tracking). -smoke runs a fast
// reduced-scale subset that exercises the bench rig end to end, and with
// -json fails unless every smoke table of bench.Experiments left its file.
// -maxk caps the daemon counts of the
// -failure/-collective/-contention/-launch/-mw sweeps (CI runs -launch,
// -mw and -contention with -maxk 16384). A row whose predicted host
// footprint exceeds GOMEMLIMIT (bench.DefaultMemLimit when unset) is not
// run — lmonbench prints a skipped-row line with the predicted bytes —
// which caps the store-forward launch row, K private full-table copies, at
// K=4096 by default.
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
// -blockprofile FILE and -mutexprofile FILE add where goroutines waited —
// the scheduler ↔ goroutine hand-off, which a CPU profile shows only as
// runtime.futex — recording every event, as `go test` does by default.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"

	"launchmon/internal/bench"
)

// emit writes rows as BENCH_<stem>.json.
func emit(stem string, rows any) error {
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	path := fmt.Sprintf("BENCH_%s.json", stem)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// selectors registers one flag per distinct bench.Experiment.Flag, of the
// kind its Arg implies, and names the experiments -all leaves out.
func selectors() (notInAll []string) {
	for _, e := range bench.Experiments {
		if e.OwnFlagOnly {
			notInAll = append(notInAll, "-"+e.Flag)
		}
		if flag.Lookup(e.Flag) != nil {
			continue // a flag may select several rows
		}
		switch e.Arg {
		case "true":
			flag.Bool(e.Flag, false, e.Help)
		case "":
			flag.String(e.Flag, "", e.Help)
		default:
			flag.Int(e.Flag, 0, e.Help)
		}
	}
	return notInAll
}

// selected reports whether the command line set e's flag to the value
// that selects it, and that value.
func selected(e bench.Experiment) (bool, string) {
	v := flag.Lookup(e.Flag).Value.String()
	if e.Arg == "" {
		return v != "", v
	}
	return v == e.Arg, v
}

func main() {
	notInAll := selectors()
	mem := flag.Bool("mem", false, "with -launch/-million/-smoke, also print the per-role peak RPDTAB memory table")
	obsRider := flag.Bool("obs", false, "with -launch/-smoke, add the observability rider (obs-on second pass + invariant checks)")
	maxk := flag.Int("maxk", 0, "cap the daemon counts of the failure/collective/contention/launch/mw sweeps (0 = full scale)")
	smoke := flag.Bool("smoke", false, "run a fast reduced-scale subset (CI)")
	all := flag.Bool("all", false, "run every experiment except "+strings.Join(notInAll, " and ")+", which only their own flags select")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write the allocation profile (every allocation since start) to this file at exit")
	blockProfile := flag.String("blockprofile", "", "write a goroutine blocking profile of the run to this file")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex contention profile of the run to this file")
	writeJSON := flag.Bool("json", false, "also write results as BENCH_<name>.json")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, map[string]string{"allocs": *memProfile, "block": *blockProfile, "mutex": *mutexProfile})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmonbench: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()
	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "lmonbench: %s: %v\n", name, err)
		stopProfiles() // os.Exit skips the deferred call
		os.Exit(1)
	}

	// A row must fit the soft memory limit the runtime was given; without
	// one, the default row budget.
	p := bench.Params{Smoke: *smoke, MaxK: *maxk, Mem: *mem, Obs: *obsRider, MemLimit: debug.SetMemoryLimit(-1), Out: os.Stdout}
	if p.MemLimit == math.MaxInt64 {
		p.MemLimit = bench.DefaultMemLimit
	}
	written := map[string]bool{}
	write := func(stem string, rows any) error {
		if !*writeJSON {
			return nil
		}
		written[stem] = true
		return emit(stem, rows)
	}
	// With no selecting flag given (even one whose value matches no row,
	// like -fig 4, counts as given), run what -all runs.
	if !*smoke && !slices.ContainsFunc(bench.Experiments, func(e bench.Experiment) bool {
		f := flag.Lookup(e.Flag)
		return f.Value.String() != f.DefValue
	}) {
		*all = true
	}
	for _, e := range bench.Experiments {
		q := p
		on, arg := selected(e)
		q.Arg = arg
		switch {
		case !*smoke:
			on = on || *all && !e.OwnFlagOnly
		case len(e.SmokeStems()) > 0:
			on = true
		default:
			// No smoke form: of these, only an experiment -all never runs
			// still answers its own flag, at the scale that flag means.
			on, q.Smoke = on && e.OwnFlagOnly, false
		}
		if !on {
			continue
		}
		if err := e.Run(q, write); err != nil {
			fail(e.Name, err)
		}
		fmt.Println()
	}
	// benchdiff skips a pinned stem that has no file in the run, so a smoke
	// table that stopped being written would otherwise leave the gate green.
	if *smoke && *writeJSON {
		for _, e := range bench.Experiments {
			for _, stem := range e.SmokeStems() {
				if !written[stem] {
					fail("smoke", fmt.Errorf("table %s of bench.Experiments wrote no BENCH_%s.json", stem, stem))
				}
			}
		}
	}
}

// startProfiles starts the CPU profile (cpuPath) and arranges the profiles
// runtime/pprof keeps by name ("allocs", "block", "mutex": name → path);
// empty paths select nothing. The returned stop function finishes them all
// and must run before the process exits.
func startProfiles(cpuPath string, named map[string]string) (stop func(), err error) {
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
	if named["block"] != "" {
		runtime.SetBlockProfileRate(1)
	}
	if named["mutex"] != "" {
		runtime.SetMutexProfileFraction(1)
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "lmonbench: cpu profile: %v\n", err)
			}
		}
		for name, path := range named {
			if path != "" {
				if err := writeProfile(name, path); err != nil {
					fmt.Fprintf(os.Stderr, "lmonbench: %s profile: %v\n", name, err)
				}
			}
		}
	}, nil
}

// writeProfile writes one of runtime/pprof's named profiles, after a GC so
// that "allocs" covers everything allocated up to now.
func writeProfile(name, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
