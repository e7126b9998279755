package perfmodel

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"launchmon/internal/engine"
)

// synthTimeline builds a plausible serialized launchAndSpawn timeline,
// with the marks in moved at their given instants instead.
func synthTimeline(moved ...engine.MarkEntry) engine.Timeline {
	var tl engine.Timeline
	for _, e := range []mark{
		{engine.MarkE0, 0}, {engine.MarkE1, ms(5)}, {engine.MarkE2, ms(9)},
		{engine.MarkE3, ms(209)}, // includes 18ms tracing
		{engine.MarkE4, ms(214)}, {engine.MarkE5, ms(215)}, {engine.MarkE6, ms(315)},
		{engine.MarkE7, ms(317)}, {engine.MarkE8, ms(318)}, {engine.MarkE9, ms(340)},
		{engine.MarkE10, ms(352)}, {engine.MarkE11, ms(360)},
		{engine.MarkTracing, ms(18)}, {engine.MarkFetch, ms(5)},
	} {
		for _, m := range moved {
			if m.Name == e.name {
				e.at = m.At
			}
		}
		tl.Mark(e.name, e.at)
	}
	return tl
}

type mark struct {
	name string
	at   time.Duration
}

func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

// flatCutThrough is the fan-out ablation's flat-tree launch (K=128, 8
// tasks a daemon, cut-through) as Merge leaves it: the whole handshake,
// e7 to e10, runs inside the RM's spawn window.
func flatCutThrough() engine.Timeline {
	var tl engine.Timeline
	for _, e := range []mark{
		{engine.MarkFetch, 542525}, {engine.MarkE0, 900000}, {engine.MarkE1, 5800000},
		{engine.MarkE2, 9724076}, {engine.MarkTracing, 18000000}, {engine.MarkE3, 552247222},
		{engine.MarkE4, 552789747}, {engine.MarkE5, 552789747}, {engine.MarkE7, 553989993},
		{engine.MarkSeedFwd, 553989993}, {engine.MarkE8, 554020006}, {engine.MarkE9, 592300229},
		{engine.MarkSeedValid, 592300229}, {engine.MarkE10, 611383966},
		{engine.MarkE6, 784810485}, {engine.MarkE11, 788816547},
	} {
		tl.Mark(e.name, e.at)
	}
	return tl
}

// TestDecompose holds the components, the tiling identity and the exposed
// share on a serialized launch, on a cut-through one whose handshake the
// spawn hides, and on a partial overlap, and rejects a chain that runs
// backwards by naming both marks.
func TestDecompose(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tl      engine.Timeline
		want    Breakdown
		exposed time.Duration // LaunchMON's share of Total
		errs    []string      // what the error names, when one is due
	}{
		{name: "store_forward", tl: synthTimeline(),
			// Job (209-9) - 18, Collective (352-317) - 22, Other 9+1+2+8.
			want: Breakdown{Job: ms(182), DaemonSpawn: ms(100), Setup: ms(22), Collective: ms(13),
				Tracing: ms(18), Fetch: ms(5), Other: ms(20), Total: ms(360)},
			exposed: ms(18 + 5 + 20 + 13)},
		{name: "cut_through_hidden", tl: flatCutThrough(),
			want: Breakdown{Job: 524523146, DaemonSpawn: 232020738, Setup: 38280223, Collective: 19113750,
				Tracing: 18000000, Fetch: 542525, Overlap: 57393973, Other: 12830138, Total: 787916547,
				hiddenCollective: 19113750},
			exposed: 18000000 + 542525 + 12830138},
		{name: "partial_overlap", tl: synthTimeline(engine.MarkEntry{Name: engine.MarkE6, At: ms(345)}),
			// e7 < e6 < e10: only the collective's tail after e6 shows.
			want: Breakdown{Job: ms(182), DaemonSpawn: ms(130), Setup: ms(22), Collective: ms(13),
				Tracing: ms(18), Fetch: ms(5), Overlap: ms(28), Other: ms(18), Total: ms(360),
				hiddenCollective: ms(6)},
			exposed: ms(18 + 5 + 18 + 352 - 345)},
		{name: "handshake_backwards", tl: synthTimeline(engine.MarkEntry{Name: engine.MarkE9, At: ms(317)}),
			errs: engine.HandshakeChain[2:4]}, // e8 and e9
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := Decompose(tc.tl)
			if tc.errs != nil {
				for _, mark := range tc.errs {
					if err == nil || !strings.Contains(err.Error(), mark) {
						t.Errorf("error %v does not name %s", err, mark)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if b != tc.want {
				t.Errorf("got  %+v\nwant %+v", b, tc.want)
			}
			if sum := b.Job + b.Tracing + b.Fetch + b.DaemonSpawn + b.Setup + b.Collective - b.Overlap + b.Other; sum != b.Total {
				t.Errorf("components tile %v, total %v", sum, b.Total)
			}
			if share, want := b.LaunchMONShare(), float64(tc.exposed)/float64(b.Total); share != want {
				t.Errorf("share %f, want %f", share, want)
			}
		})
	}
}

func TestDecomposeMissingMark(t *testing.T) {
	var tl engine.Timeline
	tl.Mark(engine.MarkE0, 0)
	if _, err := Decompose(tl); err == nil {
		t.Fatal("incomplete timeline accepted")
	}
}

func TestLaunchMONShare(t *testing.T) {
	b := Breakdown{
		Job: 800 * time.Millisecond, Tracing: 18 * time.Millisecond,
		Fetch: 5 * time.Millisecond, Other: 12 * time.Millisecond,
		Collective: 15 * time.Millisecond, Total: 850 * time.Millisecond,
	}
	share := b.LaunchMONShare()
	want := 50.0 / 850.0
	if math.Abs(share-want) > 1e-9 {
		t.Fatalf("share = %f, want %f", share, want)
	}
	if (Breakdown{}).LaunchMONShare() != 0 {
		t.Fatal("zero breakdown share not 0")
	}
}

func TestFitAndPredictRecoverAffine(t *testing.T) {
	// Generate exact affine components, fit, and predict a larger scale.
	mk := func(nodes int) Point {
		tasks := nodes * 8
		b := Breakdown{
			Job:         time.Duration(10+2*tasks) * time.Millisecond,
			Fetch:       time.Duration(tasks/100) * time.Millisecond,
			DaemonSpawn: time.Duration(5+3*nodes) * time.Millisecond,
			Setup:       time.Duration(1+nodes) * time.Millisecond,
			Collective:  time.Duration(2+nodes/2) * time.Millisecond,
			Tracing:     18 * time.Millisecond,
			Other:       12 * time.Millisecond,
		}
		b.Total = b.Job + b.Fetch + b.DaemonSpawn + b.Setup + b.Collective + b.Tracing + b.Other
		return Point{Nodes: nodes, Tasks: tasks, B: b}
	}
	m, err := Fit([]Point{mk(16), mk(32), mk(48)})
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Predict(128, 1024)
	want := mk(128).B
	if ErrorPct(pred, want) > 1.0 {
		t.Fatalf("prediction off: got %v, want %v", pred.Total, want.Total)
	}
}

func TestFitRequiresTwoPoints(t *testing.T) {
	if _, err := Fit([]Point{{Nodes: 1, Tasks: 8}}); err == nil {
		t.Fatal("single-point fit accepted")
	}
}

func TestErrorPct(t *testing.T) {
	a := Breakdown{Total: 100 * time.Millisecond}
	b := Breakdown{Total: 110 * time.Millisecond}
	if e := ErrorPct(a, b); math.Abs(e-9.0909) > 0.01 {
		t.Fatalf("ErrorPct = %f", e)
	}
	if e := ErrorPct(a, Breakdown{}); e != 0 {
		t.Fatalf("zero measured ErrorPct = %f", e)
	}
}

// Property: linfit recovers exact affine relations.
func TestPropertyLinfitExact(t *testing.T) {
	f := func(a8, b8 int8, xs []uint8) bool {
		if len(xs) < 2 {
			return true
		}
		// Need at least two distinct x values.
		distinct := false
		for _, x := range xs[1:] {
			if x != xs[0] {
				distinct = true
			}
		}
		if !distinct {
			return true
		}
		a, b := float64(a8), float64(b8)
		fx := make([]float64, len(xs))
		fy := make([]float64, len(xs))
		for i, x := range xs {
			fx[i] = float64(x)
			fy[i] = a + b*float64(x)
		}
		ga, gb := linfit(fx, fy)
		return math.Abs(ga-a) < 1e-6 && math.Abs(gb-b) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Predict never returns negative components.
func TestPropertyPredictNonNegative(t *testing.T) {
	f := func(coef [7]int8, nodes uint8) bool {
		m := Model{
			JobA: float64(coef[0]), JobB: float64(coef[1]) / 100,
			FetchA: float64(coef[2]) / 10, DaemonA: float64(coef[3]),
			SetupB: float64(coef[4]) / 100, CollectiveA: float64(coef[5]),
			Tracing: float64(coef[6]) / 10,
		}
		b := m.Predict(int(nodes), int(nodes)*8)
		for _, d := range []time.Duration{b.Job, b.Fetch, b.DaemonSpawn, b.Setup, b.Collective, b.Tracing, b.Other} {
			if d < 0 {
				return false
			}
		}
		return b.Total >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
