package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/lmonp"
	"launchmon/internal/rm"
	"launchmon/internal/vtime"
)

func TestTimelineEncodeDecode(t *testing.T) {
	var tl Timeline
	tl.Mark(MarkE0, 0)
	tl.Mark(MarkE3, 120*time.Millisecond)
	tl.Mark(MarkTracing, 18*time.Millisecond)
	out, err := DecodeTimeline(tl.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tl, out) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", tl, out)
	}
}

func TestTimelineBetween(t *testing.T) {
	var tl Timeline
	tl.Mark(MarkE2, 10*time.Millisecond)
	tl.Mark(MarkE3, 35*time.Millisecond)
	if d := tl.Between(MarkE2, MarkE3); d != 25*time.Millisecond {
		t.Fatalf("Between = %v", d)
	}
	if d := tl.Between(MarkE3, MarkE2); d != 0 {
		t.Fatalf("reversed Between = %v, want 0", d)
	}
	if d := tl.Between(MarkE2, "missing"); d != 0 {
		t.Fatalf("missing Between = %v, want 0", d)
	}
}

func TestTimelineMerge(t *testing.T) {
	var a, b Timeline
	a.Mark(MarkE0, 1)
	b.Mark(MarkE1, 2)
	a.Merge(b)
	if _, ok := a.Get(MarkE1); !ok {
		t.Fatal("merge lost entry")
	}
}

// Property: timeline codec round-trips arbitrary mark lists.
func TestPropertyTimelineRoundTrip(t *testing.T) {
	f := func(names []string, ats []uint32) bool {
		var tl Timeline
		for i, n := range names {
			at := time.Duration(0)
			if i < len(ats) {
				at = time.Duration(ats[i])
			}
			tl.Mark(n, at)
		}
		out, err := DecodeTimeline(tl.Encode())
		if err != nil {
			return false
		}
		if len(out.Entries) != len(tl.Entries) {
			return false
		}
		for i := range tl.Entries {
			if out.Entries[i] != tl.Entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRoundTrips(t *testing.T) {
	lr := LaunchReq{
		Job:    rm.JobSpec{Name: "j", Exe: "app", Nodes: 7, TasksPerNode: 3},
		Daemon: rm.DaemonSpec{Exe: "d", Args: []string{"-v"}, Env: map[string]string{"A": "1", "B": "2"}},
	}
	gotLR, err := decodeLaunchReq(EncodeLaunchReq(lr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lr, gotLR) {
		t.Fatalf("LaunchReq roundtrip: %+v vs %+v", lr, gotLR)
	}

	ar := AttachReq{JobID: 42, Daemon: rm.DaemonSpec{Exe: "d", Env: map[string]string{}}}
	gotAR, err := decodeAttachReq(EncodeAttachReq(ar))
	if err != nil {
		t.Fatal(err)
	}
	if gotAR.JobID != 42 || gotAR.Daemon.Exe != "d" {
		t.Fatalf("AttachReq roundtrip: %+v", gotAR)
	}

	sr := SpawnReq{Nodes: 5, Daemon: rm.DaemonSpec{Exe: "mw", Env: map[string]string{}}}
	gotSR, err := decodeSpawnReq(EncodeSpawnReq(sr))
	if err != nil {
		t.Fatal(err)
	}
	if gotSR.Nodes != 5 || gotSR.Daemon.Exe != "mw" {
		t.Fatalf("SpawnReq roundtrip: %+v", gotSR)
	}
}

// TestRequestsCarryTheSharedDaemonSpecRecord: each request is its own
// fields around rm.AppendDaemonSpec's bytes (key order, pinned in
// internal/rm), so the same request encodes to the same bytes every time.
func TestRequestsCarryTheSharedDaemonSpecRecord(t *testing.T) {
	d := rm.DaemonSpec{Exe: "d", Args: []string{"-v"}, Env: map[string]string{}}
	for i := 0; i < 16; i++ {
		d.Env[fmt.Sprintf("LMON_K%02d", i)] = fmt.Sprint(i)
	}
	rec := rm.AppendDaemonSpec(nil, d)
	u32 := func(v uint32) []byte { return lmonp.AppendUint32(nil, v) }
	job := rm.JobSpec{Name: "j", Exe: "app", Nodes: 7, TasksPerNode: 3}
	for name, c := range map[string]struct {
		enc  func() []byte
		want [][]byte
	}{
		"launch": {func() []byte { return EncodeLaunchReq(LaunchReq{Job: job, Daemon: d, ChunkBytes: 256}) },
			[][]byte{appendJobSpec(nil, job), rec, u32(256)}},
		"attach": {func() []byte { return EncodeAttachReq(AttachReq{JobID: 42, Daemon: d}) }, [][]byte{u32(42), rec, u32(0)}},
		"spawn":  {func() []byte { return EncodeSpawnReq(SpawnReq{Nodes: 5, Daemon: d}) }, [][]byte{u32(5), rec}},
	} {
		for i := 0; i < 100; i++ {
			if got, want := c.enc(), bytes.Join(c.want, nil); !bytes.Equal(got, want) {
				t.Fatalf("%s request, encoding %d:\n got %q\nwant %q", name, i, got, want)
			}
		}
	}
}

func TestCodecTruncation(t *testing.T) {
	enc := EncodeLaunchReq(LaunchReq{Job: rm.JobSpec{Exe: "x", Nodes: 1, TasksPerNode: 1}, Daemon: rm.DaemonSpec{Exe: "d"}})
	for _, cut := range []int{0, 3, len(enc) / 2} {
		if _, err := decodeLaunchReq(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestTraceLoop runs the engine's one trace loop on a held, traced
// process in each mode: on the way to MPIR_Breakpoint it continues every
// other stop, in attach mode the interrupt ends it, and an exit or a
// closed stream fails it. Every native event it reads costs handlerCost.
func TestTraceLoop(t *testing.T) {
	for _, c := range []struct {
		name   string
		tracee func(p *cluster.Proc)
		stop   string
		before func(p *cluster.Proc, tr *cluster.Tracer) error // the mode's start, and what the cell adds
		events int
		err    string
	}{
		{"launch", func(p *cluster.Proc) {
			p.DebugEvent("load")
			p.DebugEvent("load")
			p.DebugEvent(rm.BPName)
		}, rm.BPName, nil, 3, ""},
		{"launch_exit", func(p *cluster.Proc) { p.DebugEvent("load") }, rm.BPName, nil, 2, "before MPIR_Breakpoint"},
		{"attach", func(p *cluster.Proc) { p.Sim().Sleep(time.Second) }, "interrupt",
			func(_ *cluster.Proc, tr *cluster.Tracer) error { return tr.Interrupt() }, 1, ""},
		{"attach_exit", func(*cluster.Proc) {}, "interrupt", nil, 1, "during attach"},
		{"detached", func(p *cluster.Proc) { p.DebugEvent("load") }, "interrupt",
			func(p *cluster.Proc, tr *cluster.Tracer) error {
				p.Sim().Sleep(time.Millisecond) // the tracee stops on "load" first
				tr.Detach()
				return nil
			}, 1, "event stream closed"},
	} {
		t.Run(c.name, func(t *testing.T) {
			sim := vtime.New()
			cl, err := cluster.New(sim, cluster.Options{Nodes: 1})
			if err != nil {
				t.Fatal(err)
			}
			var cost time.Duration
			var traceErr error
			sim.Go("test", func() {
				tracee, err := cl.Node(0).SpawnProc(cluster.Spec{Main: c.tracee, Hold: true})
				if err != nil {
					t.Error(err)
					return
				}
				tr, err := tracee.Attach()
				if err != nil {
					t.Error(err)
					return
				}
				tracee.Start()
				eng, _ := cl.Node(0).SpawnProc(cluster.Spec{Main: func(p *cluster.Proc) {
					if c.before != nil {
						if err := c.before(p, tr); err != nil {
							t.Error(err)
							return
						}
					}
					e := &engine{proc: p}
					cost, traceErr = e.trace(tr, c.stop)
					tr.Detach()
				}})
				eng.Wait()
			})
			sim.Run()
			if c.err == "" && traceErr != nil || c.err != "" && (traceErr == nil || !strings.Contains(traceErr.Error(), c.err)) {
				t.Fatalf("trace: %v, want an error saying %q", traceErr, c.err)
			}
			if want := time.Duration(c.events) * handlerCost; cost != want {
				t.Fatalf("tracing cost = %v, want %d events × %v", cost, c.events, handlerCost)
			}
		})
	}
}
