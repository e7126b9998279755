package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/core"
	"launchmon/internal/dpcl"
	"launchmon/internal/rm"
	"launchmon/internal/rm/slurm"
	"launchmon/internal/rsh"
	"launchmon/internal/simnet"
	"launchmon/internal/tools/jobsnap"
	"launchmon/internal/tools/oss"
	"launchmon/internal/tools/stat"
	"launchmon/internal/vtime"
)

// bracket is what one measured launch yields, by either route.
type bracket struct {
	Ready, Elapsed time.Duration
	Net            simnet.Stats
	PeakLive       int
}

// gatherBE and gatherFE are the daemon and front-end sides of the timed
// section both routes of TestScenarioMatchesHandAssembledRig run: a
// go-signal broadcast answered by a gather of one small blob per daemon.
func gatherBE(p *cluster.Proc, be *core.BackEnd) {
	if _, err := be.Collective().Broadcast(); err != nil {
		return
	}
	if err := be.Collective().Gather(payloadFor(be.Rank(), 64)); err != nil {
		return
	}
	be.Finalize()
}

func gatherFE(sess *core.Session, k int) error {
	if err := sess.Broadcast([]byte("go")); err != nil {
		return err
	}
	all, err := sess.Gather()
	if err == nil && len(all) != k {
		err = fmt.Errorf("gathered %d of %d contributions", len(all), k)
	}
	return err
}

func gatherOpts(k, fanout int) core.Options {
	return core.Options{
		Job:        rm.JobSpec{Exe: "app", Nodes: k, TasksPerNode: 1},
		Daemon:     rm.DaemonSpec{Exe: "ref_be"},
		ICCLFanout: fanout,
	}
}

// handAssembled is the bracket every measurement site used to write out
// before the Scenario runner: build the rig piece by piece, register the
// daemon, launch from a front-end process, stamp the clock and the network
// counters around the timed section. It is kept here, once, as the
// reference the runner is compared against.
func handAssembled(k, fanout int, lean bool) (bracket, error) {
	var b bracket
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: k})
	if err != nil {
		return b, err
	}
	mgr, err := slurm.Install(cl, slurm.Config{})
	if err != nil {
		return b, err
	}
	if !lean {
		if _, err := rsh.Install(cl); err != nil {
			return b, err
		}
		if _, err := dpcl.Install(cl); err != nil {
			return b, err
		}
	}
	core.Setup(cl, mgr)
	if !lean {
		jobsnap.Install(cl)
		stat.Install(cl)
		oss.Install(cl)
	}
	cl.Register("ref_be", func(p *cluster.Proc) {
		be, err := core.BEInit(p)
		if err != nil {
			return
		}
		gatherBE(p, be)
	})
	var ferr error
	sim.Go("bench-fe-boot", func() {
		if _, err := cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "bench_fe", Main: func(p *cluster.Proc) {
			t0 := p.Sim().Now()
			sess, err := core.LaunchAndSpawn(p, gatherOpts(k, fanout))
			if err != nil {
				ferr = err
				return
			}
			b.Ready = p.Sim().Now() - t0
			start := p.Sim().Now()
			before := cl.Net().Stats()
			if ferr = gatherFE(sess, k); ferr != nil {
				return
			}
			b.Elapsed = p.Sim().Now() - start
			after := cl.Net().Stats()
			b.Net = simnet.Stats{Messages: after.Messages - before.Messages, Bytes: after.Bytes - before.Bytes, Dials: after.Dials - before.Dials}
		}}); err != nil {
			ferr = err
		}
	})
	sim.Run()
	b.PeakLive = sim.PeakLive()
	return b, ferr
}

// TestScenarioMatchesHandAssembledRig holds the runner to the hand-written
// bracket it replaced: same time-to-ready, same timed section, same
// traffic, and — the launch_million pin — not one simulated goroutine more.
func TestScenarioMatchesHandAssembledRig(t *testing.T) {
	const fanout = 4
	for _, k := range []int{8, 32} {
		for _, lean := range []bool{false, true} {
			want, err := handAssembled(k, fanout, lean)
			if err != nil {
				t.Fatalf("hand-assembled K=%d lean=%v: %v", k, lean, err)
			}
			var got bracket
			r, err := Scenario{
				Nodes: k, Lean: lean, Opts: gatherOpts(k, fanout), BE: gatherBE,
				FE: func(r *Run) (err error) {
					got.Elapsed, got.Net, err = r.timed(func() error { return gatherFE(r.Sess, k) })
					return err
				},
			}.Run()
			if err != nil {
				t.Fatalf("scenario K=%d lean=%v: %v", k, lean, err)
			}
			got.Ready, got.PeakLive = r.Ready, r.Sim.PeakLive()
			if got != want {
				t.Errorf("K=%d lean=%v: runner measured %+v, hand-assembled rig %+v", k, lean, got, want)
			}
			if want.Ready <= 0 || want.Elapsed <= 0 || want.Net.Bytes <= 0 || want.PeakLive <= 0 {
				t.Errorf("K=%d lean=%v: reference bracket measured nothing: %+v", k, lean, want)
			}
		}
	}
}

// TestExperimentsTable checks the table's keys and runs its smoke sweep:
// names and JSON stems are unique, every selecting flag has one usage
// string, and every smoke table prints something and emits at least one
// row under its stem.
func TestExperimentsTable(t *testing.T) {
	names, stems, help := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, e := range Experiments {
		if names[e.Name] {
			t.Errorf("experiment name %q is used twice", e.Name)
		}
		names[e.Name] = true
		if e.Help != "" {
			if help[e.Flag] {
				t.Errorf("-%s has two usage strings", e.Flag)
			}
			help[e.Flag] = true
		}
		for _, tb := range e.Tables {
			for _, stem := range []string{tb.Stem, tb.SmokeStem} {
				if stem != "" && stems[stem] {
					t.Errorf("stem %q is used twice", stem)
				}
				stems[stem] = true
			}
			if tb.SmokeStem != "" && !strings.HasPrefix(tb.SmokeStem, "smoke_") {
				t.Errorf("smoke stem %q lacks the smoke_ prefix the CI gate globs for", tb.SmokeStem)
			}
		}
	}
	for _, e := range Experiments {
		if !help[e.Flag] {
			t.Errorf("-%s (%s) has no usage string", e.Flag, e.Name)
		}
		if len(e.SmokeStems()) == 0 {
			continue
		}
		var out bytes.Buffer
		emitted := map[string]int{}
		err := e.Run(Params{Smoke: true, Mem: true, Obs: true, Out: &out}, func(stem string, rows any) error {
			emitted[stem] = reflect.ValueOf(rows).Len()
			return nil
		})
		if err != nil {
			t.Errorf("%s at smoke size: %v", e.Name, err)
			continue
		}
		if out.Len() == 0 {
			t.Errorf("%s printed nothing", e.Name)
		}
		for _, stem := range e.SmokeStems() {
			if emitted[stem] == 0 {
				t.Errorf("%s emitted no rows under %s", e.Name, stem)
			}
		}
	}
}

// TestSmokeStemsMatchBaseline ties the CI gate to the table: benchdiff
// skips a pinned stem that has no file in the run, so the smoke stems
// pinned in ci/bench_baseline.json must be exactly the ones a smoke run
// writes (lmonbench -smoke -json fails if it did not write one of those).
func TestSmokeStemsMatchBaseline(t *testing.T) {
	data, err := os.ReadFile("../../ci/bench_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var pin struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(data, &pin); err != nil {
		t.Fatal(err)
	}
	var pinned, table []string
	for key := range pin.Metrics {
		if stem, _, _ := strings.Cut(key, "["); strings.HasPrefix(stem, "smoke_") && !slices.Contains(pinned, stem) {
			pinned = append(pinned, stem)
		}
	}
	for _, e := range Experiments {
		table = append(table, e.SmokeStems()...)
	}
	slices.Sort(pinned)
	slices.Sort(table)
	if !slices.Equal(pinned, table) {
		t.Errorf("ci/bench_baseline.json pins smoke stems %v, bench.Experiments writes %v", pinned, table)
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
		got := Params{MaxK: tc.maxk, MemLimit: tc.memLimit, Out: &out}.capScales("sweep", scales, perK)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: scales %v, want %v", tc.name, got, tc.want)
		}
		if out.String() != tc.skipped {
			t.Errorf("%s: printed %q, want %q", tc.name, out.String(), tc.skipped)
		}
	}
}

func TestLowerScalesLowersInsteadOfFiltering(t *testing.T) {
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
		if got := (Params{MaxK: tc.maxk}).lowerScales(full); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("-maxk %d: scales %v, want %v", tc.maxk, got, tc.want)
		}
	}
}
