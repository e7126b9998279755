package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestProfileFlagsLeaveProfiles runs the program itself on one small sweep
// row with both profile flags and checks that each left a non-empty file.
func TestProfileFlagsLeaveProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = oldArgs, oldFlags }()
	os.Args = []string{"lmonbench", "-collective", "-maxk", "64", "-cpuprofile", cpu, "-memprofile", mem}
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	main() // exits the test binary non-zero if a flag does not parse or the row fails
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", filepath.Base(path), err)
		}
	}
}

func TestCapScales(t *testing.T) {
	scales := []int{64, 1024, 4096, 16384}
	perK := func(k int) int64 { return int64(k) * 1000 } // predicted bytes
	for _, tc := range []struct {
		name     string
		maxk     int
		memLimit int64
		want     []int
		skipped  string
	}{
		{"no cap, everything fits", 0, 1 << 40, scales, ""},
		{"-maxk filters larger points", 1024, 1 << 40, []int{64, 1024}, ""},
		{"-maxk between points keeps the smaller ones", 5000, 1 << 40, []int{64, 1024, 4096}, ""},
		{"-maxk below every point leaves nothing", 8, 1 << 40, []int{}, ""},
		{"a point over the memory limit is skipped with a line",
			0, 5_000_000, []int{64, 1024, 4096},
			"skipped sweep K=16384: predicted footprint 16384000 B exceeds the 5000000 B memory limit (raise GOMEMLIMIT to run it)\n"},
		{"-maxk applies before the footprint check: no line for a filtered point",
			4096, 2_000_000, []int{64, 1024},
			"skipped sweep K=4096: predicted footprint 4096000 B exceeds the 2000000 B memory limit (raise GOMEMLIMIT to run it)\n"},
	} {
		var out bytes.Buffer
		got := capScales(&out, "sweep", scales, tc.maxk, tc.memLimit, perK)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: scales %v, want %v", tc.name, got, tc.want)
		}
		if out.String() != tc.skipped {
			t.Errorf("%s: printed %q, want %q", tc.name, out.String(), tc.skipped)
		}
	}
}

func TestMillionScalesLowersInsteadOfFiltering(t *testing.T) {
	full := []int{1 << 20}
	for _, tc := range []struct {
		maxk int
		want []int
	}{
		{0, full},
		{65536, []int{65536}}, // a reduced run still produces a row
		{1 << 20, full},
		{1 << 21, full}, // a cap above the sweep point changes nothing
	} {
		if got := millionScales(full, tc.maxk); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("-maxk %d: scales %v, want %v", tc.maxk, got, tc.want)
		}
	}
}
