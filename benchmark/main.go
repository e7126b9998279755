// Command benchmark is the repository's two-clock benchmark: four
// workloads measured end to end (host clock and virtual clock), a traced
// pass that attributes the time to layers, and a kernel pass that drives
// each layer's public functions in isolation. See README.md.
//
// The driver contract (BENCHMARK.json) runs one workload per process:
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//
// Without --workload it runs all three passes over all four workloads,
// each in its own child process; -aa runs the end-to-end pass twice and
// checks the two against the benchmark's own bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// goMaxProcs is fixed so host metrics compare between hosts with more
// cores than the 2-core reference.
const goMaxProcs = "2"

// clearedEnv names the variable through which a re-exec'd process learns
// what cleanEnv removed.
const clearedEnv = "LMON_BENCH_CLEARED_ENV"

// cleanEnv re-execs the process with GOGC, GOMEMLIMIT and GODEBUG removed
// and GOMAXPROCS=2, so every workload runs under the same runtime settings
// whatever the caller's shell exports.
func cleanEnv() {
	var cleared []string
	for _, k := range []string{"GOGC", "GOMEMLIMIT", "GODEBUG"} {
		if v, ok := os.LookupEnv(k); ok {
			cleared = append(cleared, k+"="+v)
			os.Unsetenv(k)
		}
	}
	if len(cleared) == 0 && os.Getenv("GOMAXPROCS") == goMaxProcs {
		return
	}
	os.Setenv("GOMAXPROCS", goMaxProcs)
	if _, done := os.LookupEnv(clearedEnv); !done {
		os.Setenv(clearedEnv, strings.Join(cleared, " "))
	}
	exe, err := os.Executable()
	if err == nil {
		err = syscall.Exec(exe, os.Args, os.Environ())
	}
	fmt.Fprintln(os.Stderr, "benchmark: re-exec with a clean environment:", err)
	os.Exit(2)
}

// runInfo is what a result is only comparable under.
type runInfo struct {
	Seed       int64   `json:"seed"`
	Quick      bool    `json:"quick"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	ClearedEnv string  `json:"cleared_env"`
	LoadAvg1   float64 `json:"loadavg_1min"`
	Noisy      bool    `json:"noisy"` // 1-minute load average above nproc/2 at start
}

func newRunInfo(cfg config) runInfo {
	info := runInfo{
		Seed: cfg.seed, Quick: cfg.quick, NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", ClearedEnv: os.Getenv(clearedEnv),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				info.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			info.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	info.Noisy = info.LoadAvg1 > float64(info.NProc)/2
	return info
}

// metricValue and result are the last line of a workload run's standard
// output, in the driver contract's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload runs one workload in this process: the end-to-end pass, or
// (cfg.trace) the traced pass plus the kernel pass.
func runWorkload(cfg config) (result, *bench, error) {
	run, ok := workloads[cfg.workload]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	b := newBench(cfg)
	decls := declsFor(cfg.trace)
	values := b.layer
	if cfg.trace {
		if cfg.kernels {
			runKernels(b.layer, cfg.quick)
		}
		run(b)
		if b.tr == nil {
			return result{}, b, fmt.Errorf("%s: traced rep did not run: %v", cfg.workload, b.failures)
		}
		b.spanLayers()
		if err := b.tr.write(cfg.traceDir, cfg.workload); err != nil {
			return result{}, b, err
		}
	} else {
		run(b)
		var err error
		if values, err = b.endToEnd(); err != nil {
			return result{}, b, fmt.Errorf("%w (failures: %v)", err, b.failures)
		}
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: make(map[string]metricValue, len(decls))}
	for _, d := range decls {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res, b, nil
}

// declsFor lists what a pass emits: the end-to-end metrics, or (traced
// pass) the per-layer ones.
func declsFor(trace bool) []decl {
	if trace {
		return perLayerDecls
	}
	return endToEndDecls
}

func printMetrics(workload string, decls []decl, res result) {
	for _, d := range decls {
		fmt.Printf("%-14s %-36s %18.9g %s\n", workload, d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Printf("%-14s %-36s %18.9g ratio (%d failed of %d attempted operations and output checks)\n",
		workload, "fail_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
}

func main() {
	cleanEnv()
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "run one workload in this process and print its result as the last line (driver contract); empty = all passes over all workloads")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the input generator")
	flag.Float64Var(&cfg.seconds, "seconds", 8, "measured reps continue until their timed sections add up to this many seconds")
	flag.IntVar(&trace, "trace", 0, "0 = end-to-end pass (tracing and obs off); 1 = traced pass + kernel pass (per-layer metrics)")
	flag.BoolVar(&cfg.quick, "quick", false, "every K and session count ÷32, 1+1 reps (smoke)")
	flag.BoolVar(&cfg.kernels, "kernels", true, "with -trace 1: also run the kernel pass")
	flag.StringVar(&cfg.traceDir, "tracedir", filepath.Join(".bench_build", "trace"), "where the traced pass writes <workload>.trace.json and <workload>.layers.json")
	aa := flag.Bool("aa", false, "run the end-to-end pass twice back to back and compare the two against the bounds")
	out := flag.String("out", "", "full run: also write every result as JSON to this file")
	rec := flag.Bool("record", false, "full run: store this seed's exact metrics (virt_s, simnet counts) in benchmark/recorded.json")
	flag.Parse()
	cfg.trace = trace != 0

	info := newRunInfo(cfg)
	if cfg.workload == "" {
		os.Exit(runAll(cfg, info, *aa, *out, *rec))
	}

	res, b, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	infoJSON, _ := json.Marshal(info)
	fmt.Printf("# %s run: %s\n", cfg.workload, infoJSON)
	for _, f := range b.failures {
		fmt.Printf("# FAILED: %s\n", f)
	}
	if !cfg.trace {
		fmt.Printf("# host metrics are medians of n=%d measured reps (1 warm-up rep discarded); too few for a tail percentile\n", len(b.reps))
		for i, r := range b.reps {
			fmt.Printf("# rep %d as measured: wall %.3f s, cpu %.3f s, calibration %.3f s = host speed %.3f of the reference\n",
				i+1, r.wall.Seconds(), r.cpu.Seconds(), r.calib.Seconds(), r.speed())
		}
	}
	printMetrics(cfg.workload, declsFor(cfg.trace), res)
	if note := compareRecorded(cfg, res); note != "" {
		fmt.Println(note)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// child runs one workload in a child process (this binary, clean
// environment inherited) and parses the result line it prints last.
func child(cfg config, extra ...string) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{
		"-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-tracedir", cfg.traceDir, fmt.Sprintf("-quick=%v", cfg.quick),
	}
	cmd := exec.Command(exe, append(args, extra...)...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
	if err != nil {
		return result{}, fmt.Errorf("%s %v: %w", cfg.workload, extra, err)
	}
	for _, l := range lines[:len(lines)-1] {
		if strings.HasPrefix(l, "#") {
			fmt.Println(l)
		}
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s %v: result line: %w", cfg.workload, extra, err)
	}
	return res, nil
}

// runAll is the one-command form: end-to-end pass, traced pass and kernel
// pass over all four workloads, or (-aa) the end-to-end pass twice.
func runAll(cfg config, info runInfo, aa bool, out string, rec bool) int {
	infoJSON, _ := json.Marshal(info)
	fmt.Printf("# run: %s\n", infoJSON)
	if info.Noisy {
		fmt.Printf("# NOISY: 1-minute load average %.2f exceeds nproc/2 = %.1f; host metrics are unreliable\n", info.LoadAvg1, float64(info.NProc)/2)
		if aa {
			fmt.Fprintln(os.Stderr, "benchmark: -aa refuses to run on a noisy host")
			return 1
		}
	}
	status := 0
	report := func(err error) {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		status = 1
	}
	// pass runs every workload in a child of its own, one after another.
	pass := func(extra func(i int) []string) map[string]result {
		got := make(map[string]result)
		for i, w := range workloadNames {
			c := cfg
			c.workload = w
			res, err := child(c, extra(i)...)
			if err != nil {
				report(err)
				continue
			}
			if !res.Correct {
				status = 1
			}
			got[w] = res
		}
		return got
	}
	endToEnd := func(int) []string { return []string{"-trace", "0"} }
	all := map[string]any{"run": info}
	if aa {
		first, second := pass(endToEnd), pass(endToEnd)
		if !compareAA(first, second) {
			status = 1
		}
		all["end_to_end"], all["end_to_end_2"] = first, second
	} else {
		e2e := pass(endToEnd)
		for _, w := range workloadNames {
			printMetrics(w, endToEndDecls, e2e[w])
		}
		// The kernels do not depend on the workload: the first child runs
		// them, the others take its numbers.
		layers := pass(func(i int) []string { return []string{"-trace", "1", fmt.Sprintf("-kernels=%v", i == 0)} })
		for _, w := range workloadNames {
			if res, ok := layers[w]; ok {
				for _, name := range kernelNames() {
					res.Metrics[name] = layers[workloadNames[0]].Metrics[name]
				}
				printMetrics(w, perLayerDecls, res)
			}
		}
		if err := mergeLayerFiles(cfg.traceDir); err != nil {
			report(err)
		}
		fmt.Printf("# traces: %s/<workload>.trace.json (open in ui.perfetto.dev), %s/layers.json\n", cfg.traceDir, cfg.traceDir)
		all["end_to_end"], all["per_layer"] = e2e, layers
		if rec && status == 0 {
			if err := record(cfg, e2e, layers); err != nil {
				report(err)
			}
		}
	}
	if out != "" {
		if err := writeJSON(out, all); err != nil {
			report(err)
		}
	}
	return status
}

// mergeLayerFiles folds the per-workload layer tables into layers.json.
func mergeLayerFiles(dir string) error {
	merged := make(map[string]json.RawMessage)
	for _, w := range workloadNames {
		data, err := os.ReadFile(filepath.Join(dir, w+".layers.json"))
		if err != nil {
			return err
		}
		merged[w] = data
	}
	return writeJSON(filepath.Join(dir, "layers.json"), merged)
}
