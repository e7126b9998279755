// Package obs is LaunchMON's session-scoped observability plane: an
// allocation-light metrics registry (counters and gauges), a virtual-time
// span recorder, and a Chrome/Perfetto trace-event exporter. It is built
// for the simulator's rules: nothing in this package calls Compute or
// Sleep, so enabling observability never charges virtual time directly —
// the only virtual-time cost of the plane is the real wire messages of the
// metrics harvest (the tree fold in internal/iccl), which the
// launch-pipeline bench bounds by the root's fold charges
// (bench.ObsDriftBound).
//
// Everything is nil-safe: a nil *Registry hands out nil *Counter/*Gauge,
// and nil receivers no-op, so instrumented hot paths cost one predictable
// branch when observability is off (the default) and need no conditional
// wiring at the call sites.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// load returns the current value (0 on a nil counter).
func (c *Counter) load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-or-peak-value metric. Merged across daemons it keeps
// the maximum, so "peak bytes" and "max queue depth" survive the tree
// fold unchanged.
type Gauge struct{ v atomic.Uint64 }

// set stores n. No-op on a nil gauge.
func (g *Gauge) set(n uint64) {
	if g != nil {
		g.v.Store(n)
	}
}

// SetMax raises the gauge to n when n exceeds the current value.
func (g *Gauge) SetMax(n uint64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// load returns the current value (0 on a nil gauge).
func (g *Gauge) load() uint64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is one component's named-metric table. Counter/Gauge intern
// the metric on first use; the returned handles are lock-free afterward,
// so hot paths hold their handles instead of re-looking-up names.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter — observability off.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Snapshot captures the registry as plain maps (nil registry → empty
// snapshot). Zero-valued metrics are kept: a counter that exists but
// never fired is itself a signal.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]uint64{}, Gauges: map[string]uint64{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.load()
	}
	return s
}

// Snapshot is a point-in-time copy of a registry, the unit of the metrics
// harvest: every daemon encodes one, and the tree fold merges them pairwise
// on the way to the root.
type Snapshot struct {
	Counters map[string]uint64 `json:"counters"`
	Gauges   map[string]uint64 `json:"gauges"`
}

// Merge folds other into s: counters sum (total work across daemons),
// gauges keep the maximum (peaks survive aggregation).
func (s *Snapshot) Merge(other Snapshot) {
	if s.Counters == nil {
		s.Counters = map[string]uint64{}
	}
	if s.Gauges == nil {
		s.Gauges = map[string]uint64{}
	}
	for name, v := range other.Counters {
		s.Counters[name] += v
	}
	for name, v := range other.Gauges {
		if v > s.Gauges[name] {
			s.Gauges[name] = v
		}
	}
}

// sortedKeys returns m's keys in lexical order, the canonical encoding
// order (deterministic wire bytes for deterministic virtual-time costs).
func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
