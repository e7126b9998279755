package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tx.bytes")
	c.Add(10)
	c.Inc()
	if got := c.load(); got != 11 {
		t.Errorf("counter = %d, want 11", got)
	}
	if r.Counter("tx.bytes") != c {
		t.Error("counter handle not interned")
	}
	g := r.Gauge("peak")
	g.set(5)
	g.SetMax(3) // lower: no-op
	g.SetMax(9)
	if got := g.load(); got != 9 {
		t.Errorf("gauge = %d, want 9", got)
	}

	snap := r.Snapshot()
	if snap.Counters["tx.bytes"] != 11 || snap.Gauges["peak"] != 9 {
		t.Errorf("snapshot = %+v", snap)
	}
	// Zero-valued metrics survive: existence is a signal.
	r.Counter("never.fired")
	if v, ok := r.Snapshot().Counters["never.fired"]; !ok || v != 0 {
		t.Error("zero-valued counter dropped from snapshot")
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	c.Inc()
	if c.load() != 0 {
		t.Error("nil counter accumulated")
	}
	g := r.Gauge("y")
	g.set(1)
	g.SetMax(2)
	if g.load() != 0 {
		t.Error("nil gauge accumulated")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 {
		t.Error("nil registry snapshot not empty")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
				r.Gauge("peak").SetMax(uint64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").load(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Gauge("peak").load(); got != 999 {
		t.Errorf("concurrent gauge = %d, want 999", got)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := Snapshot{Counters: map[string]uint64{"c": 3}, Gauges: map[string]uint64{"g": 7, "h": 2}}
	b := Snapshot{Counters: map[string]uint64{"c": 4, "d": 1}, Gauges: map[string]uint64{"g": 5, "h": 9}}
	a.Merge(b)
	if a.Counters["c"] != 7 || a.Counters["d"] != 1 {
		t.Errorf("merged counters = %v", a.Counters)
	}
	if a.Gauges["g"] != 7 || a.Gauges["h"] != 9 {
		t.Errorf("merged gauges = %v", a.Gauges)
	}
	// Merge into a zero-valued snapshot initializes the maps.
	var z Snapshot
	z.Merge(b)
	if z.Counters["d"] != 1 || z.Gauges["h"] != 9 {
		t.Errorf("merge into zero snapshot = %+v", z)
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	s := Snapshot{
		Counters: map[string]uint64{"a.b": 1, "z": 1 << 60},
		Gauges:   map[string]uint64{"peak.bytes": 42},
	}
	enc := s.Encode()
	// Deterministic: equal snapshots encode to equal bytes.
	if !bytes.Equal(enc, s.Encode()) {
		t.Error("encoding is not deterministic")
	}
	got, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters["a.b"] != 1 || got.Counters["z"] != 1<<60 || got.Gauges["peak.bytes"] != 42 {
		t.Errorf("round trip = %+v", got)
	}
	// Empty input is the obs-off harvest blob.
	if empty, err := DecodeSnapshot(nil); err != nil || len(empty.Counters) != 0 {
		t.Errorf("empty decode = %+v, %v", empty, err)
	}
	for _, bad := range [][]byte{{1, 2, 3}, append([]byte(nil), enc[:6]...), append(enc, 0)} {
		if _, err := DecodeSnapshot(bad); !errors.Is(err, errBadSnapshot) {
			t.Errorf("DecodeSnapshot(%v) = %v, want ErrBadSnapshot", bad, err)
		}
	}
}

func TestMergeEncodedFoldShape(t *testing.T) {
	s1 := Snapshot{Counters: map[string]uint64{"n": 1}, Gauges: map[string]uint64{"p": 10}}
	s2 := Snapshot{Counters: map[string]uint64{"n": 2}, Gauges: map[string]uint64{"p": 30}}
	s3 := Snapshot{Counters: map[string]uint64{"n": 4}, Gauges: map[string]uint64{"p": 20}}

	// coll.Combine shape: acc is nil on the first call.
	acc, err := MergeEncoded(nil, s1.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for _, next := range []Snapshot{s2, s3} {
		if acc, err = MergeEncoded(acc, next.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	got, err := DecodeSnapshot(acc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters["n"] != 7 || got.Gauges["p"] != 30 {
		t.Errorf("fold = %+v", got)
	}
	if _, err := MergeEncoded(acc, []byte("junk")); !errors.Is(err, errBadSnapshot) {
		t.Errorf("merging junk: %v", err)
	}
}

func TestRecorderSpansAndInstants(t *testing.T) {
	now := time.Duration(0)
	rec := NewRecorder(func() time.Duration { return now })
	sp := rec.Start("phase")
	now = 5 * time.Millisecond
	sp.End()
	rec.Instant("mark", 2*time.Millisecond)
	rec.AddSpan("pre", time.Millisecond, 2*time.Millisecond)

	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].Name != "phase" || spans[0].Dur != 5*time.Millisecond {
		t.Errorf("span = %+v", spans[0])
	}
	if ins := rec.Instants(); len(ins) != 1 || ins[0].At != 2*time.Millisecond {
		t.Errorf("instants = %+v", rec.Instants())
	}

	// Nil recorder and nil span are silent no-ops.
	var nilRec *Recorder
	nilRec.Start("x").End()
	nilRec.Instant("y", 0)
	nilRec.AddSpan("z", 0, 0)
	if nilRec.Spans() != nil || nilRec.Instants() != nil {
		t.Error("nil recorder returned events")
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	now := time.Duration(0)
	rec := NewRecorder(func() time.Duration { return now })
	rec.AddSpan("b-span", 2*time.Microsecond, 3*time.Microsecond)
	rec.AddSpan("a-span", 2*time.Microsecond, time.Microsecond)
	rec.Instant("tick", time.Microsecond)

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf, 7, "sess"); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	// Metadata first: process name, then the one thread_name, the front
	// end's track (tid 1), which every event is on.
	if events[0]["ph"] != "M" || events[0]["name"] != "process_name" {
		t.Errorf("first event = %v", events[0])
	}
	names := map[string]bool{}
	var payload []map[string]any
	for _, ev := range events {
		if ev["ph"] == "M" {
			if args, ok := ev["args"].(map[string]any); ok {
				names[args["name"].(string)] = true
			}
			continue
		}
		payload = append(payload, ev)
	}
	if len(names) != 2 || !names["sess"] || !names["front-end"] {
		t.Errorf("track names %v, want the process sess and the track front-end", names)
	}
	for _, ev := range payload {
		if ev["tid"] != float64(1) {
			t.Errorf("event %v off the front end's track", ev)
		}
	}
	// Payload sorted by (ts, name): tick@1, then a-span before b-span @2.
	order := make([]string, 0, len(payload))
	for _, ev := range payload {
		order = append(order, ev["name"].(string))
	}
	want := []string{"tick", "a-span", "b-span"}
	if len(order) != len(want) {
		t.Fatalf("payload = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("payload order = %v, want %v", order, want)
		}
	}
	// Determinism: a second export is byte-identical.
	var buf2 bytes.Buffer
	if err := rec.WriteChromeTrace(&buf2, 7, "sess"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("trace export is not deterministic")
	}
}
