package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// The smoke test runs every workload at -quick scale, both passes, and
// holds the program to BENCHMARK.json: whatever is declared there is
// emitted exactly once with the declared unit, and nothing else is.

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []declaredMetric             `json:"end_to_end"`
	PerLayer  []declaredMetric             `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

var (
	nameRE     = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	spanNameRE = regexp.MustCompile(`^[a-z]+\.[A-Za-z_]+$`) // layer.call
)

// checkEmitted compares one run's metrics with the declared list.
func checkEmitted(t *testing.T, what string, res result, declared []declaredMetric) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v failed=%d attempted=%d", what, res.Correct, res.Failed, res.Attempted)
	}
	seen := make(map[string]bool)
	for _, d := range declared {
		if seen[d.Name] {
			t.Errorf("%s: %s declared twice", what, d.Name)
		}
		seen[d.Name] = true
		if !nameRE.MatchString(d.Name) {
			t.Errorf("%s: bad metric name %q", what, d.Name)
		}
		got, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s not emitted", what, d.Name)
		case got.Unit != d.Unit:
			t.Errorf("%s: %s emitted in %q, declared in %q", what, d.Name, got.Unit, d.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: %s = %v", what, d.Name, got.Value)
		}
	}
	for name := range res.Metrics {
		if !seen[name] {
			t.Errorf("%s: emitted metric %s is not declared in BENCHMARK.json", what, name)
		}
	}
}

func TestQuickRunMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(bj.Workloads), len(workloadNames))
	}
	for i, d := range endToEndDecls {
		if i >= len(bj.EndToEnd) || bj.EndToEnd[i].Name != d.name || bj.EndToEnd[i].Bound != d.bound {
			t.Errorf("end-to-end metric %d: program has %s bound %v, BENCHMARK.json differs", i, d.name, d.bound)
		}
	}
	dir := t.TempDir()
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
			continue
		}
		cfg := config{workload: w.Name, seed: 1, seconds: 1, quick: true, traceDir: dir}
		res, _, err := runWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkEmitted(t, w.Name+" end-to-end", res, bj.EndToEnd)
		for _, d := range bj.EndToEnd {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, res.Metrics[d.Name].Value)
			}
		}

		// The kernels do not depend on the workload; once is enough here.
		cfg.trace, cfg.kernels = true, i == 0
		res, b, err := runWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkEmitted(t, w.Name+" per-layer", res, bj.PerLayer)
		if drift := res.Metrics["obs.virt_drift_pct"].Value; drift > 2 {
			t.Errorf("%s: obs-on virtual time drifts %.3f%% from obs-off, budget is 2%%", w.Name, drift)
		}
		checkSpanTree(t, w.Name, b.tr.spans)
		for _, f := range []string{".trace.json", ".layers.json"} {
			var v any
			data, err := os.ReadFile(filepath.Join(dir, w.Name+f))
			if err != nil || json.Unmarshal(data, &v) != nil {
				t.Errorf("%s: %s%s does not load: %v", w.Name, w.Name, f, err)
			}
		}
	}
}

// checkSpanTree: one root, every other span has a parent and lies inside
// it, self times are non-negative and add up to the root's duration.
func checkSpanTree(t *testing.T, what string, spans []*span) {
	t.Helper()
	byID := make(map[int]*span)
	for _, s := range spans {
		byID[s.ID] = s
	}
	var root *span
	var self time.Duration
	for _, s := range spans {
		if !spanNameRE.MatchString(s.Name) {
			t.Errorf("%s: span name %q is not layer.call", what, s.Name)
		}
		if s.H1 < s.H0 || s.V1 < s.V0 || s.Self < 0 {
			t.Errorf("%s: span %d %s runs backwards or has negative self time: host %v..%v virt %v..%v self %v", what, s.ID, s.Name, s.H0, s.H1, s.V0, s.V1, s.Self)
		}
		self += s.Self
		if s.Parent == 0 {
			if root != nil {
				t.Errorf("%s: second root span %d %s", what, s.ID, s.Name)
			}
			root = s
			continue
		}
		p := byID[s.Parent]
		switch {
		case p == nil:
			t.Errorf("%s: span %d %s has no parent %d", what, s.ID, s.Name, s.Parent)
		case s.H0 < p.H0 || s.H1 > p.H1:
			t.Errorf("%s: span %d %s [%v,%v] leaves its parent %s [%v,%v]", what, s.ID, s.Name, s.H0, s.H1, p.Name, p.H0, p.H1)
		}
	}
	if root == nil {
		t.Fatalf("%s: no root span", what)
	}
	for _, s := range spans {
		// Every span of the traced rep descends from its root.
		at, hops := s, 0
		for ; at.Parent != 0 && byID[at.Parent] != nil && hops <= len(spans); hops++ {
			at = byID[at.Parent]
		}
		if at != root {
			t.Errorf("%s: span %d %s does not descend from the rep's root", what, s.ID, s.Name)
		}
	}
	if d := root.dur(); math.Abs(float64(self-d)) > 0.01*float64(d) {
		t.Errorf("%s: self times sum to %v, root span lasts %v", what, self, d)
	}
}

// Overlapping children (session_churn's workers) share the instant, so the
// self times still add up to the root.
func TestSelfTimesSplitOverlap(t *testing.T) {
	mk := func(id, parent int, h0, h1 time.Duration) *span {
		return &span{ID: id, Parent: parent, Name: "bench.x", H0: h0, H1: h1}
	}
	spans := []*span{mk(1, 0, 0, 100), mk(2, 1, 10, 60), mk(3, 1, 40, 90), mk(4, 2, 20, 30)}
	selfTimes(spans)
	want := []time.Duration{20, 30, 40, 10} // root 0-10,90-100; 2: 10-20,30-40 + half of 40-60; 3: half of 40-60 + 60-90
	for i, s := range spans {
		if s.Self != want[i] {
			t.Errorf("span %d self = %v, want %v", s.ID, s.Self, want[i])
		}
	}
}

func TestSeedDrivesInputsAndVirtualTime(t *testing.T) {
	sc := newScale(true)
	a, b, c := generate(7, sc), generate(7, sc), generate(8, sc)
	if a.fingerprint() != b.fingerprint() {
		t.Error("same seed generated different inputs")
	}
	if a.fingerprint() == c.fingerprint() {
		t.Error("different seeds generated the same inputs")
	}
	virt := func(seed int64) float64 {
		res, _, err := runWorkload(config{workload: "session_churn", seed: seed, seconds: 1, quick: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics["virt_s"].Value
	}
	if v1, v2 := virt(7), virt(7); v1 != v2 {
		t.Errorf("same seed, different virt_s: %.9f vs %.9f", v1, v2)
	}
	if virt(7) == virt(8) {
		t.Error("different seeds gave the same virt_s to the nanosecond")
	}
}
