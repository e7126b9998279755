package main

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"launchmon/internal/bench"
)

// TestProfileFlagsLeaveProfiles runs the program itself on one small sweep
// row with every profile flag and checks that each left a non-empty file.
func TestProfileFlagsLeaveProfiles(t *testing.T) {
	dir := t.TempDir()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = oldArgs, oldFlags }()
	defer runtime.SetBlockProfileRate(0)
	defer runtime.SetMutexProfileFraction(0)
	os.Args = []string{"lmonbench", "-collective", "-maxk", "64"}
	var paths []string
	for _, kind := range []string{"cpu", "mem", "block", "mutex"} {
		paths = append(paths, filepath.Join(dir, kind+".pprof"))
		os.Args = append(os.Args, "-"+kind+"profile", paths[len(paths)-1])
	}
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	main() // exits the test binary non-zero if a flag does not parse or the row fails
	for _, path := range paths {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", filepath.Base(path), err)
		}
	}
}

// TestSmokeWritesEveryPinnedStem runs the program itself on the smoke
// sweep with -json and checks that it left one non-empty file per smoke
// table of bench.Experiments and nothing else — the property main's own
// closing check enforces, seen from outside.
func TestSmokeWritesEveryPinnedStem(t *testing.T) {
	oldDir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() {
		os.Args, flag.CommandLine = oldArgs, oldFlags
		os.Chdir(oldDir)
	}()
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	os.Args = []string{"lmonbench", "-smoke", "-json"}
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	main() // exits the test binary non-zero if a smoke table fails or wrote no file
	var stems []string
	for _, e := range bench.Experiments {
		stems = append(stems, e.SmokeStems()...)
	}
	for _, stem := range stems {
		if st, err := os.Stat("BENCH_" + stem + ".json"); err != nil || st.Size() == 0 {
			t.Errorf("BENCH_%s.json: missing or empty (%v)", stem, err)
		}
	}
	if files, _ := filepath.Glob("BENCH_*.json"); len(files) != len(stems) {
		t.Errorf("wrote %v, the smoke table has %d stems", files, len(stems))
	}
}

// TestAllHelpNamesWhatAllLeavesOut checks that -all's usage is generated
// from the table: it names exactly the selecting flags of the experiments
// marked OwnFlagOnly.
func TestAllHelpNamesWhatAllLeavesOut(t *testing.T) {
	oldFlags := flag.CommandLine
	defer func() { flag.CommandLine = oldFlags }()
	flag.CommandLine = flag.NewFlagSet("lmonbench", flag.ContinueOnError)
	notInAll := selectors()
	if len(notInAll) == 0 {
		t.Fatal("every experiment is in -all; the million sweep must not be")
	}
	for _, e := range bench.Experiments {
		if flag.Lookup(e.Flag) == nil {
			t.Errorf("%s: selecting flag -%s not registered", e.Name, e.Flag)
		}
		if named := slices.Contains(notInAll, "-"+e.Flag); named != e.OwnFlagOnly {
			t.Errorf("%s: OwnFlagOnly=%v but named as left out of -all: %v", e.Name, e.OwnFlagOnly, named)
		}
	}
}
