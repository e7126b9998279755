package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		name          string
		base, current map[string]float64
		checked       int
		failures      int
		report        []string // substring per expected report line, in order
	}{
		{
			name:    "within tolerance both directions",
			base:    map[string]float64{"s[0].A": 100, "s[0].B": 100, "s[0].C": 0},
			current: map[string]float64{"s[0].A": 110, "s[0].B": 90, "s[0].C": 0},
			checked: 3,
			report:  []string{"bit-identical: 1 of 3 metrics, worst drift +10% (s[0].A)"},
		},
		{
			name:    "an exact reproduction says so",
			base:    map[string]float64{"s[0].A": 100, "s[0].B": 0},
			current: map[string]float64{"s[0].A": 100, "s[0].B": 0},
			checked: 2,
			report:  []string{"bit-identical: 2 of 2 metrics"},
		},
		{
			name:    "drift far inside the tolerance still shows in the summary",
			base:    map[string]float64{"s[0].A": 1e9, "s[0].B": 4},
			current: map[string]float64{"s[0].A": 1e9 - 1, "s[0].B": 4},
			checked: 2,
			report:  []string{"bit-identical: 1 of 2 metrics, worst drift -1e-07% (s[0].A)"},
		},
		{
			name:     "regression and unexplained improvement both fail",
			base:     map[string]float64{"s[0].A": 100, "s[0].B": 100},
			current:  map[string]float64{"s[0].A": 111, "s[0].B": 89},
			checked:  2,
			failures: 2,
			report: []string{"REGRESSION s[0].A", "DRIFT (improved) s[0].B",
				"bit-identical: 0 of 2 metrics, worst drift +11% (s[0].A)"},
		},
		{
			name:     "any change from a zero baseline fails",
			base:     map[string]float64{"s[0].A": 0},
			current:  map[string]float64{"s[0].A": 1e-9},
			checked:  1,
			failures: 1,
			report:   []string{"REGRESSION s[0].A", "bit-identical: 0 of 1 metrics, worst drift +Inf% (s[0].A)"},
		},
		{
			name:    "new metric only warns",
			base:    map[string]float64{"s[0].A": 1},
			current: map[string]float64{"s[0].A": 1, "s[0].New": 7},
			checked: 1,
			report:  []string{"warning: NEW s[0].New = 7", "bit-identical: 1 of 1 metrics"},
		},
		{
			// Removing sweep rows shifts the positional keys: the pin's
			// trailing rows vanish from the run, and the gate must fail
			// until the pin is rewritten — never pair the wrong rows
			// silently.
			name: "missing row inside a present stem fails",
			base: map[string]float64{
				"pipe[0].Ready": 10, "pipe[1].Ready": 20, "pipe[2].Ready": 30,
			},
			current:  map[string]float64{"pipe[0].Ready": 10, "pipe[1].Ready": 20},
			checked:  2,
			failures: 1,
			report:   []string{"MISSING pipe[2].Ready", "bit-identical: 2 of 2 metrics"},
		},
		{
			name: "absent stem skipped with one note",
			base: map[string]float64{
				"smoke[0].A": 1, "launch_million[0].Ready": 5, "launch_million[0].Tasks": 6,
			},
			current: map[string]float64{"smoke[0].A": 1},
			checked: 1,
			report:  []string{`note: baseline stem "launch_million"`, "bit-identical: 1 of 1 metrics"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			report, checked, failures := compare(tc.base, tc.current, 0.10)
			if checked != tc.checked || failures != tc.failures {
				t.Errorf("checked %d failures %d, want %d and %d (report %q)",
					checked, failures, tc.checked, tc.failures, report)
			}
			if len(report) != len(tc.report) {
				t.Fatalf("report %q, want %d lines", report, len(tc.report))
			}
			for i, want := range tc.report {
				if !strings.Contains(report[i], want) {
					t.Errorf("report line %d = %q, want it to contain %q", i, report[i], want)
				}
			}
		})
	}
}

func TestMergeReplacesOnlyGivenStems(t *testing.T) {
	prev := map[string]float64{
		"launch_million[0].Ready": 2433573178000,
		"smoke_pipe[0].Ready":     1, "smoke_pipe[1].Ready": 2, "smoke_pipe[2].Ready": 3,
		"smoke_other[0].A": 9,
	}
	current := map[string]float64{"smoke_pipe[0].Ready": 10, "smoke_pipe[1].Ready": 30}
	want := map[string]float64{
		"launch_million[0].Ready": 2433573178000,                 // carried over
		"smoke_other[0].A":        9,                             // carried over
		"smoke_pipe[0].Ready":     10, "smoke_pipe[1].Ready": 30, // replaced wholesale: row 2 is gone
	}
	if got := merge(prev, current); !reflect.DeepEqual(got, want) {
		t.Errorf("merge = %v, want %v", got, want)
	}
	if got := merge(nil, current); !reflect.DeepEqual(got, current) {
		t.Errorf("merge onto no previous pin = %v, want %v", got, current)
	}
}

func TestExtractKeysNumericFieldsByStemAndRow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_smoke_x.json")
	rows := `[{"Mode":"cut-through","Daemons":8,"OK":true},{"Mode":"cut-through","Daemons":32,"Ready":1.5,"Measured":{"Job":2,"Name":"x"}}]`
	if err := os.WriteFile(path, []byte(rows), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := extract(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"smoke_x[0].Daemons": 8, "smoke_x[1].Daemons": 32, "smoke_x[1].Ready": 1.5,
		"smoke_x[1].Measured.Job": 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("extract = %v, want %v", got, want)
	}
	if err := os.WriteFile(path, []byte(`{"not":"rows"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := extract(path); err == nil {
		t.Error("extract accepted a non-array file")
	}
}
