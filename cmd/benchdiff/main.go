// Command benchdiff is the CI bench-regression gate: it compares the
// numeric metrics of BENCH_*.json files (written by lmonbench -json)
// against a committed baseline and fails when any metric drifts beyond
// the tolerance. The simulation runs in virtual time, so smoke-sweep
// metrics are deterministic — run to run they reproduce bit-for-bit, and
// a tight threshold is safe: any drift means the system's behaviour
// changed, not that the runner was slow.
//
// Usage:
//
//	benchdiff -baseline ci/bench_baseline.json BENCH_smoke_*.json   # gate
//	benchdiff -baseline ci/bench_baseline.json -write BENCH_smoke_*.json  # regenerate
//
// Metrics are keyed <file-stem>[<row>].<Field> for every numeric field of
// every row (sweep rows are emitted in deterministic order), and
// <file-stem>[<row>].<Field>.<Sub> inside a nested object. The gate
// fails on: a metric drifting more than -tolerance in either direction
// (an unexplained improvement is as much a behaviour change as a
// regression) or a baseline metric missing from the current run. A metric
// present in the run but absent from the baseline only warns — new
// instrumentation (extra columns, extra sweep points) must not brick the
// gate before its pin lands; regenerate with -write, review the diff, and
// commit it to adopt the new metrics intentionally.
//
// Baseline stems with no file in the current run are skipped entirely
// (with a note), so the pin can hold results of sweeps too big for every
// gate invocation — the full-scale launch_million point is pinned from a
// large-memory host while CI gates only the smoke files — without the
// absent file reading as a regression. Within a stem both sides gate, a
// baseline metric missing from the run still fails: that means a sweep
// that did run lost rows or columns.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// baseline is the committed pin: one flat metric map.
type baseline struct {
	// Comment documents the file for humans browsing ci/.
	Comment string `json:"comment,omitempty"`
	// Metrics maps <file-stem>[<row>].<Field> to the pinned value.
	Metrics map[string]float64 `json:"metrics"`
}

// stemOf returns the file stem of a metric key (<stem>[<row>].<Field>).
func stemOf(key string) string {
	if i := strings.IndexByte(key, '['); i >= 0 {
		return key[:i]
	}
	return key
}

// extract flattens one BENCH_*.json file into metric entries.
func extract(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []map[string]any
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w (benchdiff expects an array of row objects)", path, err)
	}
	stem := strings.TrimSuffix(filepath.Base(path), ".json")
	stem = strings.TrimPrefix(stem, "BENCH_")
	out := make(map[string]float64)
	for i, row := range rows {
		flatten(out, fmt.Sprintf("%s[%d]", stem, i), row)
	}
	return out, nil
}

// flatten adds every numeric field of obj to out as <prefix>.<Field>, and
// those of a nested object as <prefix>.<Field>.<Sub>.
func flatten(out map[string]float64, prefix string, obj map[string]any) {
	for field, v := range obj {
		switch v := v.(type) {
		case float64:
			out[prefix+"."+field] = v
		case map[string]any:
			flatten(out, prefix+"."+field, v)
		}
	}
}

// stemsOf returns the set of file stems a metric map covers.
func stemsOf(metrics map[string]float64) map[string]bool {
	stems := make(map[string]bool)
	for k := range metrics {
		stems[stemOf(k)] = true
	}
	return stems
}

// merge builds the -write result: stems covered by current are replaced
// wholesale, pins for other stems carry over. Re-pinning from the smoke
// files alone must not drop the launch_million point, which is pinned
// from a large-memory host.
func merge(prev, current map[string]float64) map[string]float64 {
	curStems := stemsOf(current)
	merged := make(map[string]float64, len(current))
	for k, v := range prev {
		if !curStems[stemOf(k)] {
			merged[k] = v
		}
	}
	for k, v := range current {
		merged[k] = v
	}
	return merged
}

// compare gates current against base. It returns the report lines (in
// sorted key order), how many metrics were checked, and how many failed:
// drift beyond tolerance in either direction (any change from a zero
// baseline is infinite drift) or a baseline metric missing from a stem
// the run covers. Metrics new to the run only warn; baseline stems the
// run does not cover are skipped with one note each. The report always
// ends with the bit-identity summary — how many checked metrics
// reproduced exactly, and the largest drift among the rest — so a
// refactor's "no pin moved" claim reads off the log whatever the
// tolerance let through.
func compare(base, current map[string]float64, tolerance float64) (report []string, checked, failures int) {
	curStems := stemsOf(current)
	keys := make([]string, 0, len(base)+len(current))
	for k := range base {
		keys = append(keys, k)
	}
	for k := range current {
		if _, inBase := base[k]; !inBase {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	skippedStems := make(map[string]bool)
	identical, worst, worstKey := 0, 0.0, ""
	for _, k := range keys {
		want, inBase := base[k]
		got, inCur := current[k]
		switch {
		case !inBase:
			// New instrumentation, not a regression: warn so the metric is
			// visible, and let the pin catch up via -write.
			report = append(report, fmt.Sprintf("warning: NEW %s = %v not in baseline (regenerate with -write to pin)", k, got))
		case !inCur:
			stem := stemOf(k)
			if !curStems[stem] {
				if !skippedStems[stem] {
					skippedStems[stem] = true
					report = append(report, fmt.Sprintf("note: baseline stem %q not part of this run, skipping its pins", stem))
				}
				continue
			}
			report = append(report, fmt.Sprintf("MISSING %s (baseline %v) absent from this run", k, want))
			failures++
		default:
			checked++
			drift := 0.0
			if want != 0 {
				drift = (got - want) / want
			} else if got != 0 {
				drift = math.Inf(1)
			}
			if drift == 0 {
				identical++
			} else if math.Abs(drift) > math.Abs(worst) {
				worst, worstKey = drift, k
			}
			if math.Abs(drift) > tolerance {
				direction := "REGRESSION"
				if drift < 0 {
					direction = "DRIFT (improved)"
				}
				report = append(report, fmt.Sprintf("%s %s: baseline %v, got %v (%+.1f%%)", direction, k, want, got, drift*100))
				failures++
			}
		}
	}
	summary := fmt.Sprintf("bit-identical: %d of %d metrics", identical, checked)
	if worstKey != "" {
		summary += fmt.Sprintf(", worst drift %+.3g%% (%s)", worst*100, worstKey)
	}
	return append(report, summary), checked, failures
}

func main() {
	basePath := flag.String("baseline", "", "path to the committed baseline JSON")
	tolerance := flag.Float64("tolerance", 0.10, "maximum relative drift per metric")
	write := flag.Bool("write", false, "regenerate the baseline from the given files instead of gating")
	flag.Parse()

	if *basePath == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff -baseline <file> [-tolerance 0.10] [-write] BENCH_*.json...")
		os.Exit(2)
	}

	current := make(map[string]float64)
	for _, path := range flag.Args() {
		m, err := extract(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(1)
		}
		for k, v := range m {
			current[k] = v
		}
	}

	if *write {
		var prev baseline
		if data, err := os.ReadFile(*basePath); err == nil {
			// An unreadable previous pin carries nothing over.
			_ = json.Unmarshal(data, &prev)
		}
		merged := merge(prev.Metrics, current)
		b := baseline{
			Comment: "virtual-time bench pins for the CI smoke sweep plus the full-scale launch_million point; " +
				"-write replaces only the stems of the files it is given, so regenerate the smoke pins with: " +
				"go run ./cmd/lmonbench -smoke -json && go run ./cmd/benchdiff -baseline ci/bench_baseline.json -write BENCH_smoke_*.json " +
				"and the million pin (fits a 16 GB host, ~30 min on one core) with: " +
				"GODEBUG=madvdontneed=1 go run ./cmd/lmonbench -million -mem -json && go run ./cmd/benchdiff -baseline ci/bench_baseline.json -write BENCH_launch_million.json; " +
				"goroutine counts are virtual-time-deterministic and pinned, RSS is host-dependent and never pinned",
			Metrics: merged,
		}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*basePath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchdiff: wrote %d metrics to %s (%d from this run, %d carried over)\n",
			len(merged), *basePath, len(current), len(merged)-len(current))
		return
	}

	data, err := os.ReadFile(*basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", *basePath, err)
		os.Exit(1)
	}

	report, checked, failures := compare(base.Metrics, current, *tolerance)
	for _, line := range report[:len(report)-1] {
		fmt.Fprintf(os.Stderr, "benchdiff: %s\n", line)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d metric(s) out of bounds (tolerance %.0f%%); "+
			"if intentional, regenerate the baseline with -write and commit the diff\n",
			failures, *tolerance*100)
	} else {
		fmt.Printf("benchdiff: %d metrics within %.0f%% of baseline\n", checked, *tolerance*100)
	}
	fmt.Printf("benchdiff: %s\n", report[len(report)-1])
	if failures > 0 {
		os.Exit(1)
	}
}
