package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Recorder collects virtual-time spans and instant events for one trace
// (one session). It is safe for concurrent use — the FE relay, collective
// helpers and watcher goroutines all record into the session's recorder.
// A nil recorder no-ops everywhere, so instrumentation points need no
// obs-on conditionals.
type Recorder struct {
	now func() time.Duration

	mu       sync.Mutex
	spans    []SpanEvent
	instants []InstantEvent
}

// NewRecorder builds a recorder reading timestamps from now (the
// simulation clock). now must be safe for concurrent use.
func NewRecorder(now func() time.Duration) *Recorder {
	return &Recorder{now: now}
}

// SpanEvent is one completed span: a named interval of the front end's.
type SpanEvent struct {
	Name  string
	Begin time.Duration
	Dur   time.Duration
}

// InstantEvent is one point event (Timeline marks fold in as these).
type InstantEvent struct {
	Name string
	At   time.Duration
}

// Span is an open interval returned by Start; End closes it and commits
// it to the recorder.
type Span struct {
	rec   *Recorder
	name  string
	begin time.Duration
}

// Start opens a span. Nil-safe: a nil recorder returns a nil span whose End
// no-ops.
func (r *Recorder) Start(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{rec: r, name: name, begin: r.now()}
}

// End closes the span at the current virtual time and records it.
func (s *Span) End() {
	if s == nil {
		return
	}
	r := s.rec
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, SpanEvent{Name: s.name, Begin: s.begin, Dur: end - s.begin})
	r.mu.Unlock()
}

// AddSpan records a pre-computed complete span (how Timeline mark chains
// become spans at export time).
func (r *Recorder) AddSpan(name string, begin, dur time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, SpanEvent{Name: name, Begin: begin, Dur: dur})
	r.mu.Unlock()
}

// Instant records a point event.
func (r *Recorder) Instant(name string, at time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.instants = append(r.instants, InstantEvent{Name: name, At: at})
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []SpanEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SpanEvent(nil), r.spans...)
}

// Instants returns a copy of the recorded instant events.
func (r *Recorder) Instants() []InstantEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]InstantEvent(nil), r.instants...)
}

// chromeEvent is one entry of the Chrome/Perfetto trace-event JSON array
// (the "JSON Array Format" every trace viewer loads).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`    // instant scope
	Args map[string]any `json:"args,omitempty"` // metadata payload
}

// WriteChromeTrace renders the recorder's spans and instants as a
// Chrome/Perfetto trace-event JSON array: one process (pid = the session
// ID, named process) with one thread track, the front end's (tid 1).
// Events are emitted sorted by (ts, name) so equal traces produce equal
// bytes.
func (r *Recorder) WriteChromeTrace(w io.Writer, pid int, process string) error {
	spans := r.Spans()
	instants := r.Instants()

	const tid = 1
	events := make([]chromeEvent, 0, len(spans)+len(instants)+8)
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Begin) / 1e3, Dur: float64(s.Dur) / 1e3,
			Pid: pid, Tid: tid,
		})
	}
	for _, i := range instants {
		events = append(events, chromeEvent{
			Name: i.Name, Ph: "i", S: "t",
			Ts:  float64(i.At) / 1e3,
			Pid: pid, Tid: tid,
		})
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].Ts != events[b].Ts {
			return events[a].Ts < events[b].Ts
		}
		return events[a].Name < events[b].Name
	})

	// Track-naming metadata first, then the sorted payload events.
	meta := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
		Args: map[string]any{"name": process},
	}}
	if len(events) > 0 {
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": "front-end"},
		})
	}

	enc := json.NewEncoder(w)
	all := append(meta, events...)
	return enc.Encode(all)
}
