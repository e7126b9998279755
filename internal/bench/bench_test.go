package bench

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"launchmon/internal/core"
	"launchmon/internal/engine"
	"launchmon/internal/iccl"
	"launchmon/internal/perfmodel"
)

// The unit tests here run the generators at reduced scale and assert the
// qualitative claims (shapes, winners, crossovers) the paper makes; the
// full-scale regenerators run in BenchmarkExperiments
// (experiments_bench_test.go) and cmd/lmonbench.

func TestFigure3ShapeAndModel(t *testing.T) {
	rows, err := figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(figure3Scales) {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		// Paper: launchAndSpawn stays under one second through 128 nodes.
		if r.Measured.Total > time.Second {
			t.Errorf("total at %d daemons = %v, want <1s", r.Daemons, r.Measured.Total)
		}
		// Tracing cost is scale-independent 18ms; "other" ~constant.
		if r.Measured.Tracing != 18*time.Millisecond {
			t.Errorf("tracing at %d = %v", r.Daemons, r.Measured.Tracing)
		}
		if i > 0 && r.Measured.Total <= rows[i-1].Measured.Total {
			t.Errorf("total not increasing at %d daemons", r.Daemons)
		}
		// The model (fitted at ≤48 daemons) tracks measurements within 10%.
		if r.ErrPct > 10 {
			t.Errorf("model error at %d daemons = %.1f%%", r.Daemons, r.ErrPct)
		}
	}
	// LaunchMON's share is a small fraction at full scale (paper: ~5.2%).
	last := rows[len(rows)-1]
	if s := last.Measured.LaunchMONShare(); s > 0.12 {
		t.Errorf("LaunchMON share at 128 daemons = %.1f%%, want ~5-10%%", 100*s)
	}
}

func TestFigure5ShapeSmall(t *testing.T) {
	rows, err := figure5At([]int{16, 32, 64})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.Lines != r.Tasks {
			t.Errorf("row %d: %d lines for %d tasks", i, r.Lines, r.Tasks)
		}
		if r.Launch > r.Total {
			t.Errorf("row %d: launch %v > total %v", i, r.Launch, r.Total)
		}
		// The LaunchMON portion dominates Jobsnap (paper: 2.76 of 2.92s).
		if float64(r.Launch) < 0.5*float64(r.Total) {
			t.Errorf("row %d: launch share too small: %v of %v", i, r.Launch, r.Total)
		}
		if i > 0 && r.Total <= rows[i-1].Total {
			t.Errorf("total not increasing at %d daemons", r.Daemons)
		}
	}
}

func TestFigure6ShapeSmall(t *testing.T) {
	rows, err := figure6At([]int{4, 8, 16}, 12) // a 12-process front end: rsh fails at 16
	if err != nil {
		t.Fatal(err)
	}
	var sawFailure bool
	for _, r := range rows {
		if r.MRNetFailed {
			sawFailure = true
			if r.MRNetEstimate == 0 {
				t.Error("failed row missing extrapolation")
			}
			continue
		}
		// LaunchMON wins at every scale (paper: already at 4 nodes).
		if r.LaunchMON >= r.MRNet {
			t.Errorf("LaunchMON %v not faster than rsh %v at %d daemons", r.LaunchMON, r.MRNet, r.Daemons)
		}
	}
	if !sawFailure {
		t.Error("rsh path never hit the front-end process limit")
	}
	// LaunchMON keeps working at the scale rsh fails.
	last := rows[len(rows)-1]
	if !last.MRNetFailed || last.LaunchMON == 0 {
		t.Errorf("expected rsh failure + LaunchMON success at %d daemons", last.Daemons)
	}
}

func TestTable1Shape(t *testing.T) {
	rows, err := table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// DPCL ~34s, LaunchMON sub-second, both ~flat (paper Table 1).
		if r.DPCL < 33*time.Second || r.DPCL > 36*time.Second {
			t.Errorf("DPCL at %d nodes = %v", r.Nodes, r.DPCL)
		}
		if r.LaunchMON > time.Second {
			t.Errorf("LaunchMON at %d nodes = %v", r.Nodes, r.LaunchMON)
		}
		if r.DPCL < 20*r.LaunchMON {
			t.Errorf("gap too small at %d nodes: %v vs %v", r.Nodes, r.DPCL, r.LaunchMON)
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	if float64(last.DPCL) > 1.1*float64(first.DPCL) {
		t.Errorf("DPCL not ~constant: %v -> %v", first.DPCL, last.DPCL)
	}
}

func TestBGLAblationShape(t *testing.T) {
	rows, err := bglAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	slurmRow, bglRow, alpsRow, ackedRow := rows[0], rows[1], rows[2], rows[3]
	// Tree-acked spawn halves both serialized root costs at K=64, fanout
	// 32, and touches nothing of LaunchMON's own.
	if ackedRow.Measured.Job >= slurmRow.Measured.Job || ackedRow.Measured.DaemonSpawn >= slurmRow.Measured.DaemonSpawn {
		t.Errorf("tree-acked T(job)/T(daemon) %v/%v not below slurm's %v/%v", ackedRow.Measured.Job,
			ackedRow.Measured.DaemonSpawn, slurmRow.Measured.Job, slurmRow.Measured.DaemonSpawn)
	}
	if ackedRow.Measured.Tracing != slurmRow.Measured.Tracing {
		t.Errorf("tree-acked tracing %v differs from slurm's %v", ackedRow.Measured.Tracing, slurmRow.Measured.Tracing)
	}
	if alpsRow.Measured.Total == 0 {
		t.Error("alps row empty")
	}
	// All three RMs keep LaunchMON's tracing cost in the same band
	// (handler cost × O(1) events).
	if alpsRow.Measured.Tracing > 3*slurmRow.Measured.Tracing {
		t.Errorf("alps tracing %v far above slurm %v", alpsRow.Measured.Tracing, slurmRow.Measured.Tracing)
	}
	// Paper §4: BG/L's T(job)/T(daemon) significantly higher, LaunchMON's
	// own overheads similar.
	if bglRow.Measured.Job < 2*slurmRow.Measured.Job {
		t.Errorf("BG/L T(job) %v not clearly above SLURM %v", bglRow.Measured.Job, slurmRow.Measured.Job)
	}
	if bglRow.Measured.DaemonSpawn < 2*slurmRow.Measured.DaemonSpawn {
		t.Errorf("BG/L T(daemon) %v not clearly above SLURM %v", bglRow.Measured.DaemonSpawn, slurmRow.Measured.DaemonSpawn)
	}
	dTrace := bglRow.Measured.Tracing - slurmRow.Measured.Tracing
	if dTrace < 0 {
		dTrace = -dTrace
	}
	if dTrace > 5*time.Millisecond {
		t.Errorf("tracing costs diverge: %v vs %v", slurmRow.Measured.Tracing, bglRow.Measured.Tracing)
	}
}

func TestFanoutAblationShape(t *testing.T) {
	rows, err := ablationFanout()
	if err != nil {
		t.Fatal(err)
	}
	flat := rows[0].Measured
	if rows[0].Fanout != 0 {
		t.Fatal("first row not flat")
	}
	for _, r := range rows {
		m := r.Measured
		if r.Fanout != 0 && m.Setup >= flat.Setup {
			t.Errorf("fanout %d setup %v not below flat %v", r.Fanout, m.Setup, flat.Setup)
		}
		// Cut-through: at every fan-out the RM's spawn hides the whole
		// handshake, so none of it is LaunchMON's exposed share.
		if m.Overlap != m.Setup+m.Collective {
			t.Errorf("fanout %d overlap %v, want setup+collective %v", r.Fanout, m.Overlap, m.Setup+m.Collective)
		}
		if math.Abs(m.LaunchMONShare()-flat.LaunchMONShare()) > 1e-8 {
			t.Errorf("fanout %d LaunchMON share %.9f, flat %.9f", r.Fanout, m.LaunchMONShare(), flat.LaunchMONShare())
		}
	}
}

// TestOtherIsItsNamedGaps holds every timeline -fig 3 and -ablations
// decompose to the tiling: Other is e0→e2, e3→e5 less the fetch, the wait
// from the spawn answer to the handshake, and e11 after both chains end.
func TestOtherIsItsNamedGaps(t *testing.T) {
	n := 0
	decompose = func(tl engine.Timeline) (perfmodel.Breakdown, error) {
		b, err := perfmodel.Decompose(tl)
		if err != nil {
			t.Error(err)
			return b, err
		}
		n++
		at := func(mark string) time.Duration { d, _ := tl.Get(mark); return d }
		e6, e10 := at(engine.MarkE6), at(engine.MarkE10)
		gaps := at(engine.MarkE2) - at(engine.MarkE0) + at(engine.MarkE5) - at(engine.MarkE3) - b.Fetch +
			max(0, at(engine.MarkE7)-e6) + at(engine.MarkE11) - max(e6, e10)
		if b.Other != gaps {
			t.Errorf("Other %v, named gaps %v", b.Other, gaps)
		}
		if sum := b.Job + b.Tracing + b.Fetch + b.DaemonSpawn + b.Setup + b.Collective - b.Overlap + b.Other; sum != b.Total {
			t.Errorf("components tile %v, total %v", sum, b.Total)
		}
		return b, nil
	}
	defer func() { decompose = perfmodel.Decompose }()
	if _, err := figure3(); err != nil {
		t.Fatal(err)
	}
	if _, err := bglAblation(); err != nil {
		t.Fatal(err)
	}
	if _, err := ablationFanout(); err != nil {
		t.Fatal(err)
	}
	if want := len(figure3Scales) + 4 + 4; n != want {
		t.Errorf("decomposed %d timelines, want %d", n, want)
	}
}

func TestPiggybackAblationShape(t *testing.T) {
	rows, err := ablationPiggyback()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Total >= rows[1].Total {
		t.Errorf("piggybacked %v not faster than separate %v", rows[0].Total, rows[1].Total)
	}
}

func TestProctabAblationShape(t *testing.T) {
	rows, err := ablationProctab()
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]map[int]time.Duration{}
	for _, r := range rows {
		if byMode[r.Mode] == nil {
			byMode[r.Mode] = map[int]time.Duration{}
		}
		byMode[r.Mode][r.Daemons] = r.Duration
	}
	for _, n := range []int{64, 256} {
		if byMode["iccl-broadcast"][n] >= byMode["shared-file"][n] {
			t.Errorf("broadcast %v not faster than shared file %v at %d daemons",
				byMode["iccl-broadcast"][n], byMode["shared-file"][n], n)
		}
	}
}

func TestJobsnapTreeAblationShape(t *testing.T) {
	rows, err := ablationJobsnapTree()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Fanout != 0 {
		t.Fatalf("rows = %+v", rows)
	}
	flat := rows[0]
	for _, r := range rows[1:] {
		// The k-ary collection tree must not be slower than flat gather at
		// 512 daemons (the paper's future-work hypothesis). Tolerance: the
		// three rows run under different session IDs, and a session ID with
		// one more decimal digit grows every spawned daemon's environment by
		// a byte, shifting launch cost by a few ns — byte-accounting noise at
		// parts-per-billion of the 938 ms launch, not a tree-shape effect.
		if r.Total > flat.Total+time.Microsecond {
			t.Errorf("fanout %d total %v above flat %v", r.Fanout, r.Total, flat.Total)
		}
	}
}

func TestConcurrentSessionsShape(t *testing.T) {
	// Reduced scale: 4 nodes per session keeps the rigs small.
	rows, err := concurrentSessions(concurrentSessionOpts{NodesEach: 4, TasksPerNode: 4}, []int{1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Wall <= 0 || r.Slowest <= 0 || r.Slowest > r.Wall {
			t.Errorf("K=%d: wall %v, slowest %v", r.Sessions, r.Wall, r.Slowest)
		}
	}
	// Sessions overlap on disjoint nodes, so aggregate throughput must
	// rise with K — the scaling the shared mux exists to deliver.
	for i := 1; i < len(rows); i++ {
		if rows[i].Throughput <= rows[i-1].Throughput {
			t.Errorf("throughput not increasing: K=%d %.2f/s vs K=%d %.2f/s",
				rows[i].Sessions, rows[i].Throughput, rows[i-1].Sessions, rows[i-1].Throughput)
		}
	}
}

func TestContentionShapeSmall(t *testing.T) {
	rows, err := contentionAblation(contentionOpts{Tools: 4, PayloadB: 128, Fanout: 4}, []int{8, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Serialized <= 0 || r.Concurrent <= 0 {
			t.Errorf("K=%d: non-positive times %v / %v", r.Daemons, r.Serialized, r.Concurrent)
		}
		// The same collectives interleaved on tagged streams must beat
		// running them back to back on the lockstep plane — that is the
		// point of concurrent streams.
		if r.Concurrent >= r.Serialized {
			t.Errorf("K=%d: concurrent %v not faster than serialized %v", r.Daemons, r.Concurrent, r.Serialized)
		}
		// Both phases move the same payloads; tagging adds per-stream
		// headers and credit frames, not data, so bytes stay comparable
		// (within 25%).
		if r.ConcurrentBytes > r.SerializedBytes*5/4 || r.ConcurrentBytes < r.SerializedBytes*3/4 {
			t.Errorf("K=%d: concurrent bytes %d vs serialized %d — not comparable", r.Daemons, r.ConcurrentBytes, r.SerializedBytes)
		}
	}
}

func TestDebugEventsAblationShape(t *testing.T) {
	rows, err := ablationDebugEvents()
	if err != nil {
		t.Fatal(err)
	}
	fixed := map[int]time.Duration{}
	scaling := map[int]time.Duration{}
	for _, r := range rows {
		if r.Mode == "fixed" {
			fixed[r.Daemons] = r.Tracing
		} else {
			scaling[r.Daemons] = r.Tracing
		}
	}
	if fixed[16] != fixed[128] {
		t.Errorf("fixed-mode tracing varies: %v vs %v", fixed[16], fixed[128])
	}
	if scaling[128] <= scaling[16] {
		t.Errorf("scaling-mode tracing flat: %v vs %v", scaling[16], scaling[128])
	}
}

func TestFailureDetectionShapeSmall(t *testing.T) {
	period := 100 * time.Millisecond
	const miss = 3
	rows, err := failureDetection(failureOpts{Period: period, Miss: miss, Fanout: 4, Silent: true}, []int{8, 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Fail-stop (sever) detection is the fast path: the parent sees the
		// dead connection well before a heartbeat is even due.
		if r.DetectSever > period {
			t.Errorf("K=%d: sever detection %v above one period %v", r.Nodes, r.DetectSever, period)
		}
		// Silent (link-drop) detection is bounded by the miss threshold but
		// cannot beat it.
		deadline := time.Duration(miss+1) * period
		if r.DetectSilent > deadline {
			t.Errorf("K=%d: silent detection %v above deadline %v", r.Nodes, r.DetectSilent, deadline)
		}
		if r.DetectSilent < time.Duration(miss-1)*period {
			t.Errorf("K=%d: silent detection %v implausibly below threshold", r.Nodes, r.DetectSilent)
		}
		if r.Teardown < r.DetectSever {
			t.Errorf("K=%d: teardown %v before detection %v", r.Nodes, r.Teardown, r.DetectSever)
		}
	}
}

func TestHeartbeatOverheadScalesWithPeriod(t *testing.T) {
	rows, err := heartbeatOverhead(16, []time.Duration{400 * time.Millisecond, 100 * time.Millisecond}, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	slow, fast := rows[0], rows[1]
	if fast.Messages <= slow.Messages {
		t.Errorf("4x faster heartbeat sent %d msgs vs %d — overhead not period-bound", fast.Messages, slow.Messages)
	}
	// 15 beating daemons at 4x the rate: expect roughly 4x the messages.
	if fast.Messages < 3*slow.Messages {
		t.Errorf("message ratio %d/%d below ~4x", fast.Messages, slow.Messages)
	}
}

// TestTraceLaunchMetricsAreOneSnapshot: the traced launch's daemons
// finalize at once, so their finalize-time harvest is in the session
// watcher's hands at the very instant LaunchAndSpawn returns. A snapshot
// taken at that instant held it or not as the host ran the two goroutines
// (obs.harvests 1 or 2, iccl.tx.frames doubled or not), and carried the
// host's goroutine count besides: ten launches, one Metrics.
func TestTraceLaunchMetricsAreOneSnapshot(t *testing.T) {
	first, err := traceLaunch(64, 32, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 10; run++ {
		res, err := traceLaunch(64, 32, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Metrics, first.Metrics) {
			t.Fatalf("run %d metrics differ from run 0's:\n %v\n %v", run, res.Metrics, first.Metrics)
		}
	}
}

func TestPrinters(t *testing.T) {
	// Smoke-test every printer against tiny inputs.
	var buf bytes.Buffer
	printFigure3(&buf, []fig3Row{{Daemons: 1, Tasks: 8}})
	printFigure5(&buf, []fig5Row{{Daemons: 1, Tasks: 8}})
	printFigure6(&buf, []fig6Row{{Daemons: 1, Tasks: 8, MRNetFailed: true}})
	printTable1(&buf, []t1Row{{Nodes: 2}})
	printBGL(&buf, []bglRow{{RM: "x"}})
	printFanout(&buf, []fanoutRow{{}})
	printPiggyback(&buf, []piggybackRow{{Mode: "m"}})
	printDebugEvents(&buf, []debugEventsRow{{Mode: "f"}})
	printProctabAblation(&buf, []proctabRow{{Mode: "m"}})
	printFailure(&buf, []failureRow{{Nodes: 8, Period: time.Second, Miss: 3}})
	printOverhead(&buf, []overheadRow{{Nodes: 8, Period: time.Second, Window: time.Second}})
	if buf.Len() == 0 {
		t.Fatal("printers produced nothing")
	}
}

// TestObsDriftBoundIsTheRootsFolds: the obs rider's drift bound is the
// root's fold charges plus the byte slack, to the nanosecond. The row the
// store-forward K=64 launch measures passes, so does one at the bound, and
// one a nanosecond past it either way fails.
func TestObsDriftBoundIsTheRootsFolds(t *testing.T) {
	const fanout, ready = 32, 213308587 * time.Nanosecond
	bound := obsDriftBound(fanout)
	if want := fanout*iccl.PerMsgCost + 3413*time.Nanosecond; bound != want {
		t.Fatalf("ObsDriftBound(%d) = %v, want %v", fanout, bound, want)
	}
	for _, tc := range []struct {
		name  string
		drift time.Duration
		ok    bool
	}{
		{"measured", 4800260, true},
		{"at_the_bound", bound, true},
		{"past_the_bound", bound + 1, false},
		{"early_past_the_bound", -bound - 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			row := launchPipeRow{Mode: core.SeedStoreForward.String(), Table: "full", Daemons: 64,
				Ready: ready, ObsReady: ready + tc.drift, ReduceFEB: 8}
			if err := checkObsInvariants([]launchPipeRow{row}, fanout); (err == nil) != tc.ok {
				t.Errorf("drift %v: CheckObsInvariants = %v, want ok=%v", tc.drift, err, tc.ok)
			}
		})
	}
}
