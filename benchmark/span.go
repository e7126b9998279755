package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// The benchmark-side span recorder of the traced pass. Spans wrap calls
// into a layer's public API from the benchmark's own files (spans inside
// the program are a later issue); they stay in memory and are written at
// exit. A nil *tracer and a nil *span are valid and record nothing, so the
// workloads run the same code with tracing off.

// span is one traced call: a "layer.call" name, both clocks, the span that
// caused it, and the counters read at its boundaries.
type span struct {
	tr     *tracer
	ID     int
	Parent int // 0 = root
	Name   string
	Lane   int // trace-viewer track: 0 = the FE caller, w+1 = churn worker w
	Group  int // rep / session / round id shared by all spans of one launch or round

	H0, H1 time.Duration // host clock since process start
	V0, V1 time.Duration // virtual clock

	C0, C1 counters // read at the boundaries

	Self time.Duration // host time this span was the innermost open one
}

func (s *span) dur() time.Duration  { return s.H1 - s.H0 }
func (s *span) vdur() time.Duration { return s.V1 - s.V0 }
func (s *span) layer() string       { return s.Name[:strings.IndexByte(s.Name, '.')] }

type tracer struct {
	start time.Time

	mu    sync.Mutex
	spans []*span
	sim   *vtime.Sim // the rep's current rig; nil before vtime.New
	net   *simnet.Network
	heap  [2]metrics.Sample // reused by read
}

func (t *tracer) bind(sim *vtime.Sim, net *simnet.Network) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sim, t.net = sim, net
	t.mu.Unlock()
}

// counters are the counts read at every span boundary, so that ratios are
// measured where the work happens.
type counters struct {
	Net         simnet.Stats // Network.Stats()
	Live        int          // Sim.Live()
	AllocB      uint64       // heap bytes allocated so far (runtime/metrics: no stop-the-world)
	AllocObject uint64       // heap objects allocated so far
}

// read samples both clocks and the counters. Called with t.mu held.
func (t *tracer) read() (h, v time.Duration, c counters) {
	if t.sim != nil {
		v, c.Live = t.sim.Now(), t.sim.Live()
	}
	if t.net != nil {
		c.Net = t.net.Stats()
	}
	t.heap[0].Name, t.heap[1].Name = "/gc/heap/allocs:bytes", "/gc/heap/allocs:objects"
	metrics.Read(t.heap[:])
	c.AllocB, c.AllocObject = t.heap[0].Value.Uint64(), t.heap[1].Value.Uint64()
	return time.Since(t.start), v, c
}

// begin opens a span under parent (nil = a root), inheriting its lane and
// group.
func (t *tracer) begin(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{tr: t, ID: len(t.spans) + 1, Name: name}
	if parent != nil {
		s.Parent, s.Lane, s.Group = parent.ID, parent.Lane, parent.Group
	}
	s.H0, s.V0, s.C0 = t.read()
	t.spans = append(t.spans, s)
	return s
}

// on moves the span (and the children opened after it) to a lane and group.
func (s *span) on(lane, group int) *span {
	if s != nil {
		s.Lane, s.Group = lane, group
	}
	return s
}

// group is the span's group id (0 when tracing is off).
func (s *span) group() int {
	if s == nil {
		return 0
	}
	return s.Group
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.H1, s.V1, s.C1 = s.tr.read()
	s.tr.mu.Unlock()
}

// selfTimes attributes host time to spans: at every instant the time goes
// to the innermost open span, which for a single caller is "duration minus
// the part its children cover"; where several callers overlap
// (session_churn's eight workers) the instant is split equally between
// their innermost spans, so self times always sum to the root's duration.
func selfTimes(spans []*span) {
	type edge struct {
		at   time.Duration
		open bool
		s    *span
	}
	byID := make(map[int]*span, len(spans))
	edges := make([]edge, 0, 2*len(spans))
	for _, s := range spans {
		s.Self = 0
		byID[s.ID] = s
		edges = append(edges, edge{s.H0, true, s}, edge{s.H1, false, s})
	}
	// Close before open at equal instants, parents open before children.
	sort.SliceStable(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.open != b.open {
			return !a.open
		}
		if a.open {
			return a.s.ID < b.s.ID
		}
		return a.s.ID > b.s.ID
	})
	openKids := make(map[int]int) // span id → open children
	inner := make(map[*span]bool) // open spans with no open child
	var last time.Duration
	for _, e := range edges {
		if dt := e.at - last; dt > 0 && len(inner) > 0 {
			share := dt / time.Duration(len(inner))
			for s := range inner {
				s.Self += share
			}
		}
		last = e.at
		p := byID[e.s.Parent]
		if e.open {
			inner[e.s] = true
			if p != nil {
				openKids[p.ID]++
				delete(inner, p)
			}
			continue
		}
		delete(inner, e.s)
		if p != nil {
			if openKids[p.ID]--; openKids[p.ID] == 0 && p.H1 > e.at {
				inner[p] = true
			}
		}
	}
}

// layerRow aggregates one span name for layers.json.
type layerRow struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"` // host
	SelfS  float64 `json:"self_s"`  // host
	VirtS  float64 `json:"virt_total_s"`
	Msgs   int64   `json:"net_msgs"`
	Bytes  int64   `json:"net_bytes"`
	AllocB uint64  `json:"alloc_bytes"`
}

func layerTable(spans []*span) map[string]*layerRow {
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalS += s.dur().Seconds()
		r.SelfS += s.Self.Seconds()
		r.VirtS += s.vdur().Seconds()
		r.Msgs += s.C1.Net.Messages - s.C0.Net.Messages
		r.Bytes += s.C1.Net.Bytes - s.C0.Net.Bytes
		r.AllocB += s.C1.AllocB - s.C0.AllocB
	}
	return rows
}

// write emits DIR/<workload>.trace.json (Chrome / Perfetto trace-event
// format, host clock on the time axis, the virtual clock in args) and
// DIR/<workload>.layers.json.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	selfTimes(t.spans)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Cat: s.layer(), Ph: "X", Pid: 1, Tid: s.Lane,
			Ts: float64(s.H0) / 1e3, Dur: float64(s.dur()) / 1e3,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "group": s.Group,
				"virt_start_s": s.V0.Seconds(), "virt_end_s": s.V1.Seconds(),
				"self_us":   float64(s.Self) / 1e3,
				"net_msgs":  s.C1.Net.Messages - s.C0.Net.Messages,
				"net_bytes": s.C1.Net.Bytes - s.C0.Net.Bytes,
				"net_dials": s.C1.Net.Dials - s.C0.Net.Dials,
				"sim_live":  s.C1.Live, "sim_live_delta": s.C1.Live - s.C0.Live,
				"alloc_bytes": s.C1.AllocB - s.C0.AllocB, "alloc_objects": s.C1.AllocObject - s.C0.AllocObject,
			},
		})
	}
	if err := writeJSON(filepath.Join(dir, workload+".trace.json"), map[string]any{
		"displayTimeUnit": "ms", "traceEvents": events,
	}); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, workload+".layers.json"), layerTable(t.spans))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
