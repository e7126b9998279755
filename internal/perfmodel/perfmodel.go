// Package perfmodel implements the paper's §4 analytic model of
// launchAndSpawn: the decomposition of the service's critical path
// (Figure 2's events e0..e11) into the Region A/B/C components, empirical
// fitting of the T(op) cost functions from small-scale measurements, and
// prediction at larger scales — the machinery behind Figure 3's
// modeled-vs-measured comparison.
package perfmodel

import (
	"fmt"
	"time"

	"launchmon/internal/engine"
)

// Breakdown is the per-component decomposition of one launchAndSpawn.
//
// Region A (RM dominant): Job, DaemonSpawn, Setup, Collective, plus
// LaunchMON's only contribution there, Tracing. Region B: Fetch (RPDTAB).
// Region C: Collective/handshake costs at the front end. Other collects
// the scale-independent gaps: e0→e2, e3→e5 less the fetch, any wait from
// e6 to e7, and e11 after both chains end. The components tile e0→e11
// under both launch pipelines:
//
//	Job + Tracing + Fetch + DaemonSpawn + Setup + Collective − Overlap + Other == Total
type Breakdown struct {
	Job         time.Duration // T(job): spawning the application tasks
	DaemonSpawn time.Duration // T(daemon): RM spawning the tool daemons
	Setup       time.Duration // T(setup): inter-daemon fabric setup (e8..e9)
	Collective  time.Duration // T(collective): handshake bcast/gather share
	Tracing     time.Duration // engine event-handler cost (Region A, LaunchMON)
	Fetch       time.Duration // Region B: RPDTAB fetch
	// Overlap is the handshake time the RM's spawn hid, |[e7,e10] ∩
	// [e5,e6]|: 0 under store-forward, which JSON then omits.
	Overlap time.Duration `json:",omitempty"`
	Other   time.Duration // all remaining scale-independent costs
	Total   time.Duration // e0 → e11

	hiddenCollective time.Duration // the part of Collective inside [e5,e6]
}

// LaunchMONShare returns the fraction of the total attributable to
// LaunchMON itself and exposed on the critical path: tracing + fetch +
// other + the collective handshake outside the RM's spawn window — the
// paper reports ≈5.2% at 128 nodes.
func (b Breakdown) LaunchMONShare() float64 {
	if b.Total == 0 {
		return 0
	}
	lm := b.Tracing + b.Fetch + b.Other + b.Collective - b.hiddenCollective
	return float64(lm) / float64(b.Total)
}

// Decompose derives the component breakdown from a merged session
// timeline. A timeline off the marks' partial order (engine.EngineChain,
// engine.HandshakeChain), or whose tracing or fetch outlasts its window,
// is an error.
func Decompose(tl engine.Timeline) (Breakdown, error) {
	var b Breakdown
	if err := tl.CheckChains(engine.EngineChain, engine.HandshakeChain); err != nil {
		return b, fmt.Errorf("perfmodel: %w", err)
	}
	at := func(mark string) time.Duration { d, _ := tl.Get(mark); return d }
	e0, e2, e3, e5, e6 := at(engine.MarkE0), at(engine.MarkE2), at(engine.MarkE3), at(engine.MarkE5), at(engine.MarkE6)
	e7, e8, e9, e10, e11 := at(engine.MarkE7), at(engine.MarkE8), at(engine.MarkE9), at(engine.MarkE10), at(engine.MarkE11)
	b.Tracing, b.Fetch = at(engine.MarkTracing), at(engine.MarkFetch)
	if b.Tracing > e3-e2 || b.Fetch > e5-e3 {
		return b, fmt.Errorf("perfmodel: tracing %v outlasts e2→e3 (%v) or fetch %v outlasts e3→e5 (%v)",
			b.Tracing, e3-e2, b.Fetch, e5-e3)
	}
	// hidden is how much of [from, to] lies inside the spawn window.
	hidden := func(from, to time.Duration) time.Duration { return max(0, min(to, e6)-max(from, e5)) }
	b.Total = e11 - e0
	b.Job = e3 - e2 - b.Tracing
	b.DaemonSpawn = e6 - e5
	b.Setup = e9 - e8
	b.Collective = e10 - e7 - b.Setup
	b.Overlap = hidden(e7, e10)
	b.hiddenCollective = hidden(e7, e8) + hidden(e9, e10)
	b.Other = e2 - e0 + e5 - e3 - b.Fetch + max(0, e7-e6) + e11 - max(e6, e10)
	return b, nil
}

// Point is one calibration measurement.
type Point struct {
	Nodes int // tool daemon count (one per node)
	Tasks int // application task count
	B     Breakdown
}

// Model holds fitted affine cost functions: T(job) and fetch are affine in
// the task count; T(daemon), T(setup) and T(collective) are affine in the
// node count; tracing and other are scale-independent constants (their
// mean).
type Model struct {
	JobA, JobB               float64 // T(job) ≈ JobA + JobB·tasks (seconds)
	FetchA, FetchB           float64
	DaemonA, DaemonB         float64 // per nodes
	SetupA, SetupB           float64
	CollectiveA, CollectiveB float64
	Tracing                  float64
	Other                    float64
}

// Fit builds a Model from small-scale calibration points (≥2 required).
func Fit(points []Point) (*Model, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("perfmodel: need at least 2 points, got %d", len(points))
	}
	var m Model
	tasks := make([]float64, len(points))
	nodes := make([]float64, len(points))
	for i, p := range points {
		tasks[i] = float64(p.Tasks)
		nodes[i] = float64(p.Nodes)
	}
	col := func(f func(Breakdown) time.Duration) []float64 {
		ys := make([]float64, len(points))
		for i, p := range points {
			ys[i] = f(p.B).Seconds()
		}
		return ys
	}
	m.JobA, m.JobB = linfit(tasks, col(func(b Breakdown) time.Duration { return b.Job }))
	m.FetchA, m.FetchB = linfit(tasks, col(func(b Breakdown) time.Duration { return b.Fetch }))
	m.DaemonA, m.DaemonB = linfit(nodes, col(func(b Breakdown) time.Duration { return b.DaemonSpawn }))
	m.SetupA, m.SetupB = linfit(nodes, col(func(b Breakdown) time.Duration { return b.Setup }))
	m.CollectiveA, m.CollectiveB = linfit(nodes, col(func(b Breakdown) time.Duration { return b.Collective }))
	m.Tracing = mean(col(func(b Breakdown) time.Duration { return b.Tracing }))
	m.Other = mean(col(func(b Breakdown) time.Duration { return b.Other }))
	return &m, nil
}

// Predict evaluates the model at a target scale.
func (m *Model) Predict(nodesN, tasksN int) Breakdown {
	t := float64(tasksN)
	n := float64(nodesN)
	sec := func(s float64) time.Duration {
		if s < 0 {
			s = 0
		}
		return time.Duration(s * float64(time.Second))
	}
	b := Breakdown{
		Job:         sec(m.JobA + m.JobB*t),
		Fetch:       sec(m.FetchA + m.FetchB*t),
		DaemonSpawn: sec(m.DaemonA + m.DaemonB*n),
		Setup:       sec(m.SetupA + m.SetupB*n),
		Collective:  sec(m.CollectiveA + m.CollectiveB*n),
		Tracing:     sec(m.Tracing),
		Other:       sec(m.Other),
	}
	b.Total = b.Job + b.Fetch + b.DaemonSpawn + b.Setup + b.Collective + b.Tracing + b.Other
	return b
}

// ErrorPct returns the relative error of the model total against a
// measured total, in percent.
func ErrorPct(model, measured Breakdown) float64 {
	if measured.Total == 0 {
		return 0
	}
	diff := model.Total.Seconds() - measured.Total.Seconds()
	if diff < 0 {
		diff = -diff
	}
	return 100 * diff / measured.Total.Seconds()
}

// linfit computes the least-squares affine fit y ≈ a + b·x.
func linfit(xs, ys []float64) (a, b float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return sy / n, 0
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	return a, b
}

func mean(ys []float64) float64 {
	var s float64
	for _, y := range ys {
		s += y
	}
	return s / float64(len(ys))
}
