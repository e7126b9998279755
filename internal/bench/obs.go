package bench

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/core"
	"launchmon/internal/engine"
	"launchmon/internal/iccl"
	"launchmon/internal/obs"
	"launchmon/internal/rm"
	"launchmon/internal/simnet"
)

// Observability ablation riders of the launch-pipeline sweep
// (launchPipeOpts.Obs): every pipeline row gets a second
// identical launch with Options.Obs = ObsOn, and the harvested metrics
// feed two wire-byte invariants plus the virtual-time drift bound —
// enabling the plane must never change what flows over the seed links,
// and its only time cost (the harvest folds) must stay within what the
// root's share of them costs (obsDriftBound).

// launchPipeObsBE is the obs pass's back-end daemon: after init it
// contributes one 8-byte word to a sum reduction (the K-independence
// probe — the tree-combined result reaching the FE stays 8 bytes no
// matter how many daemons contributed) and finalizes, which pushes the
// end-of-session metrics harvest.
func launchPipeObsBE(p *cluster.Proc, be *core.BackEnd) {
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], 1)
	be.Collective().Reduce(word[:], "sum")
	be.Finalize()
}

// measureLaunchPipeObs reruns one sweep row's scenario with
// observability on and fills the row's Obs* fields from the session's
// harvested metrics.
func measureLaunchPipeObs(row *launchPipeRow, k int, mode core.SeedMode, o launchPipeOpts) error {
	sc := launchPipeScenario(k, mode, o, false)
	sc.Opts.Obs, sc.Opts.Daemon.Exe, sc.BE = core.ObsOn, "lp_obs_be", launchPipeObsBE
	sc.FE = func(r *Run) error {
		row.ObsReady = r.Ready
		if _, err := r.Sess.Reduce(); err != nil {
			return err
		}
		snap, err := r.Sess.MetricsSnapshot()
		if err != nil {
			return err
		}
		row.SeedSrcB = snap.Gauges["seed.src.bytes"]
		row.SeedLinkMaxB = snap.Gauges["seed.link.bytes.max"]
		row.ReduceFEB = snap.Counters["coll.reduce.fe.rx.bytes"]
		if row.Ready > 0 {
			row.ObsDriftPct = 100 * math.Abs(row.ObsReady.Seconds()-row.Ready.Seconds()) / row.Ready.Seconds()
		}
		return nil
	}
	_, err := sc.Run()
	return err
}

// checkObsInvariants enforces the observability acceptance bounds over an
// obs-enabled launch-pipeline sweep (launchPipeOpts.Obs):
//
//  1. Per-link seed bytes under rank-sliced routing: the busiest seed
//     link carries O(table/K · subtree) — at most the root slice divided
//     by the fanout, within framing slack.
//  2. Filtered-reduce FE bytes are K-independent: the bytes landing on
//     the FE link for a sum reduction are identical at every scale.
//  3. Virtual-time drift: enabling the plane moves time-to-ready by at
//     most obsDriftBound(fanout) — the harvest folds are its only
//     virtual-time cost.
func checkObsInvariants(rows []launchPipeRow, fanout int) error {
	maxDrift := obsDriftBound(fanout)
	var reduceSeen bool
	var reduceFEB uint64
	for _, r := range rows {
		if r.ObsReady == 0 {
			return fmt.Errorf("obs invariants: row %s/%s K=%d has no obs pass", r.Mode, r.Table, r.Daemons)
		}
		if drift := r.ObsReady - r.Ready; drift > maxDrift || drift < -maxDrift {
			return fmt.Errorf("obs invariants: %s/%s K=%d: obs-on time-to-ready drifts %v (%v vs %v), beyond the root's folds (%v)",
				r.Mode, r.Table, r.Daemons, drift, r.ObsReady, r.Ready, maxDrift)
		}
		if r.Mode == core.SeedCutThrough.String() {
			if r.SeedSrcB == 0 || r.SeedLinkMaxB == 0 {
				return fmt.Errorf("obs invariants: %s/%s K=%d: seed wire metrics missing (src=%d link-max=%d)",
					r.Mode, r.Table, r.Daemons, r.SeedSrcB, r.SeedLinkMaxB)
			}
			// Slack covers per-chunk framing, the FEData frame and the
			// end marker, all forwarded on every link regardless of slice.
			bound := 2*r.SeedSrcB/uint64(fanout) + 4096
			if r.SeedLinkMaxB > bound {
				return fmt.Errorf("obs invariants: sliced K=%d: busiest seed link carried %d B > bound %d B (src %d B / fanout %d)",
					r.Daemons, r.SeedLinkMaxB, bound, r.SeedSrcB, fanout)
			}
		}
		if !reduceSeen {
			reduceSeen, reduceFEB = true, r.ReduceFEB
		} else if r.ReduceFEB != reduceFEB {
			return fmt.Errorf("obs invariants: reduce FE bytes not K-independent: %d B vs %d B (%s/%s K=%d)",
				r.ReduceFEB, reduceFEB, r.Mode, r.Table, r.Daemons)
		}
	}
	if reduceSeen && reduceFEB == 0 {
		return fmt.Errorf("obs invariants: reduce FE byte counter never fired")
	}
	return nil
}

// obsFoldSlackBytes is the byte slack of obsDriftBound: what the fold frames
// on the root's ready path may add in transmission time, beyond their
// handling charge. The measured store-forward K=64 row spends 260 ns of it
// (≈ 312 B at simnet.Bandwidth).
const obsFoldSlackBytes = 4 << 10

// obsDriftBound is how far the observability plane may move time-to-ready
// on a tree of the given fanout. The harvest's only virtual-time cost on
// the ready path is the root's: it charges iccl.PerMsgCost for each of its
// children's FoldUp frames, serialized behind the ready gather where the
// master's ready is on the critical path (store-forward), plus the time
// obsFoldSlackBytes take on a link at simnet.Bandwidth.
func obsDriftBound(fanout int) time.Duration {
	slack := float64(obsFoldSlackBytes) / simnet.Bandwidth
	return time.Duration(fanout)*iccl.PerMsgCost + time.Duration(slack*float64(time.Second))
}

// printLaunchObs renders the observability rider columns of an
// obs-enabled launch-pipeline sweep.
func printLaunchObs(w io.Writer, rows []launchPipeRow) {
	fmt.Fprintln(w, "Observability rider (obs-on second pass per row; wire-byte invariants + drift bound)")
	fmt.Fprintln(w, "mode           table   daemons  ready-obs  drift%  seed-src-B  link-max-B  reduce-fe-B")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-7s %7d %9.3fs %6.2f %11d %11d %12d\n",
			r.Mode, r.Table, r.Daemons, r.ObsReady.Seconds(), r.ObsDriftPct, r.SeedSrcB, r.SeedLinkMaxB, r.ReduceFEB)
	}
}

// traceResult summarizes one traced launch (lmonbench -trace).
type traceResult struct {
	Path       string // the trace file; the metrics snapshot is Path.metrics.json
	Daemons    int
	Spans      int
	Instants   int
	TraceBytes int
	Metrics    obs.Snapshot
}

func printTrace(w io.Writer, rows []traceResult) {
	for _, r := range rows {
		fmt.Fprintf(w, "wrote %s (K=%d, %d spans, %d instants, %d B) and %s.metrics.json\n",
			r.Path, r.Daemons, r.Spans, r.Instants, r.TraceBytes, r.Path)
	}
}

// traceLaunch runs one obs-on launch at K daemons on a lean rig, writes
// the session's Chrome/Perfetto trace-event JSON to w, and verifies —
// before writing — that the exported spans reproduce the monotone launch
// mark chains (engine chain e0…e6,e11 and handshake chain e5,e7…e11).
func traceLaunch(k, fanout int, w io.Writer) (traceResult, error) {
	res := traceResult{Daemons: k}
	_, err := Scenario{
		Nodes: k, Lean: true,
		Opts: core.Options{
			Job:        rm.JobSpec{Exe: "app", Nodes: k, TasksPerNode: 1},
			Daemon:     rm.DaemonSpec{Exe: "trace_be"},
			ICCLFanout: fanout,
			Obs:        core.ObsOn,
		},
		FE: func(r *Run) error {
			var buf bytes.Buffer
			if err := r.Sess.WriteTrace(&buf); err != nil {
				return err
			}
			spans, instants, err := verifyTrace(buf.Bytes())
			if err != nil {
				return err
			}
			// The daemons finalize the moment they are up, and their
			// finalize-time harvest reaches the session's watcher at the
			// instant LaunchAndSpawn returns: let that instant pass, so
			// the snapshot holds the harvest however the host ordered the
			// two goroutines.
			r.Sim.Sleep(1)
			snap, err := r.Sess.MetricsSnapshot()
			if err != nil {
				return err
			}
			res.Spans, res.Instants, res.TraceBytes, res.Metrics = spans, instants, buf.Len(), snap
			_, err = w.Write(buf.Bytes())
			return err
		},
	}.Run()
	return res, err
}

// traceEvent is the subset of the Chrome trace-event schema the verifier
// reads back.
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
}

// verifyTrace parses an exported trace and checks it is a loadable
// trace-event array whose spans along a back-end launch's two chains
// (engine.EngineChain, engine.HandshakeChain; "a..b" per adjacent pair)
// exist, never run backward, and tile: each span of a chain ends exactly
// where the next one begins.
func verifyTrace(data []byte) (spans, instants int, err error) {
	var events []traceEvent
	if err := json.Unmarshal(data, &events); err != nil {
		return 0, 0, fmt.Errorf("trace is not a JSON event array: %w", err)
	}
	if len(events) == 0 || events[0].Ph != "M" {
		return 0, 0, fmt.Errorf("trace must open with metadata events, got %+v", events[:min(1, len(events))])
	}
	byName := map[string]traceEvent{}
	for _, ev := range events {
		switch ev.Ph {
		case "X":
			spans++
			if ev.Dur < 0 {
				return 0, 0, fmt.Errorf("span %q has negative duration %f", ev.Name, ev.Dur)
			}
			byName[ev.Name] = ev
		case "i":
			instants++
		}
	}
	const eps = 1e-6 // µs; timestamps are exact virtual-time divisions
	for _, chain := range [][]string{engine.EngineChain, engine.HandshakeChain} {
		var prev *traceEvent
		for i := 0; i+1 < len(chain); i++ {
			name := chain[i] + ".." + chain[i+1]
			ev, ok := byName[name]
			if !ok {
				return 0, 0, fmt.Errorf("trace is missing chain span %q", name)
			}
			if prev != nil && math.Abs(prev.Ts+prev.Dur-ev.Ts) > eps {
				return 0, 0, fmt.Errorf("chain spans %q and %q do not tile (%f+%f vs %f)",
					prev.Name, name, prev.Ts, prev.Dur, ev.Ts)
			}
			cp := ev
			prev = &cp
		}
	}
	return spans, instants, nil
}
