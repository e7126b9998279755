package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"path/filepath"
)

// A change meant only to speed the simulator must leave every virtual
// metric and every simnet count identical. recorded.json holds those exact
// values for a few seeds; a run on a recorded seed says whether they still
// hold. A change to the modelled work moves them legitimately, so a
// mismatch is reported, never failed (re-record with -record).

//go:embed recorded.json
var recordedJSON []byte

// recordedMetrics are the exact, seed-determined metrics kept on record.
var recordedMetrics = []string{"virt_s", "simnet.msgs_per_unit", "simnet.bytes_per_unit", "simnet.dials_per_unit"}

// recorded is scale ("full" or "quick") → seed → workload → metric → value.
type recorded map[string]map[string]map[string]map[string]float64

func scaleName(quick bool) string {
	if quick {
		return "quick"
	}
	return "full"
}

func loadRecorded() recorded {
	rec := make(recorded)
	// The embedded file is the repository's own; a parse error is a bug.
	if err := json.Unmarshal(recordedJSON, &rec); err != nil {
		panic(fmt.Sprintf("benchmark: recorded.json: %v", err))
	}
	return rec
}

// compareRecorded returns one comment line saying whether the run's exact
// metrics match the record for its seed ("" when the seed has none).
func compareRecorded(cfg config, res result) string {
	want := loadRecorded()[scaleName(cfg.quick)][fmt.Sprint(cfg.seed)][cfg.workload]
	checked, moved := 0, ""
	for _, name := range recordedMetrics {
		got, emitted := res.Metrics[name]
		exp, known := want[name]
		if !emitted || !known {
			continue
		}
		checked++
		if got.Value != exp {
			moved += fmt.Sprintf(" %s %.9g -> %.9g;", name, exp, got.Value)
		}
	}
	switch {
	case checked == 0:
		return ""
	case moved != "":
		return fmt.Sprintf("# MOVED against recorded.json (seed %d):%s a simulator-only change must leave these identical", cfg.seed, moved)
	}
	return fmt.Sprintf("# exact metrics match recorded.json for seed %d", cfg.seed)
}

// record merges a full run's exact metrics into benchmark/recorded.json
// (-record; run from the repository root).
func record(cfg config, passes ...map[string]result) error {
	rec := loadRecorded()
	scale, seed := scaleName(cfg.quick), fmt.Sprint(cfg.seed)
	if rec[scale] == nil {
		rec[scale] = make(map[string]map[string]map[string]float64)
	}
	rec[scale][seed] = make(map[string]map[string]float64)
	for _, pass := range passes {
		for w, res := range pass {
			if rec[scale][seed][w] == nil {
				rec[scale][seed][w] = make(map[string]float64)
			}
			for _, name := range recordedMetrics {
				if m, ok := res.Metrics[name]; ok {
					rec[scale][seed][w][name] = m.Value
				}
			}
		}
	}
	return writeJSON(filepath.Join("benchmark", "recorded.json"), rec)
}
