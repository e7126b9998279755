package bench

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/core"
	"launchmon/internal/iccl"
	"launchmon/internal/lmonp"
	"launchmon/internal/proctab"
	"launchmon/internal/rm"
)

// Launch-pipeline ablation: time-to-DaemonsSpawned under the serialized
// store-and-forward seed pipeline (the paper's Figure 2 shape: full-table
// buffering at the FE and again at the master, monolithic broadcast after
// bootstrap, the full table retained at every daemon) versus the
// cut-through pipeline (chunks relayed FE→master as they arrive from the
// engine and streamed through the still-forming ICCL tree, each daemon
// retaining only its rank slice beside one shared index — the memory model
// of DESIGN.md). Every run verifies that the union of the daemons' rank
// slices is byte-identical to the FE's table — the pipeline must never
// trade correctness for overlap, and slicing must never lose an entry.

// launchPipeRow is one pipeline × scale measurement.
type launchPipeRow struct {
	Mode    string        // seed pipeline: "cut-through" or "store-forward"
	Table   string        // RPDTAB retention the pipeline implies: "full" (store-forward) or "sliced" (cut-through)
	Daemons int           // K daemons (one per node)
	Tasks   int           // application tasks
	Ready   time.Duration // LaunchAndSpawn call → return (e0→e11, the DaemonsSpawned transition)
	TableOK bool          // slice union (and, under full retention, every rank's copy) matches the FE table

	// Peak RPDTAB bytes per pipeline role — the memory-model headline:
	// sliced retention keeps every daemon's private footprint at
	// O(K/daemons), with the full table living once per session in the
	// shared index, where full retention is O(K) per daemon.
	MemEngine   int // largest encoded chunk the engine buffers (O(chunk), both pipelines)
	MemFE       int // FE table copy
	MemIndex    int // session-shared immutable index (once per session; 0 under store-forward, whose BE daemons never read it)
	MemMaster   int // rank 0
	MemInterior int // max over daemons with ICCL children (0 when the tree is flat)
	MemLeaf     int // max over childless daemons

	// Observability rider (launchPipeOpts.Obs): a second identical launch
	// with Options.Obs = ObsOn, plus one sum reduction as the
	// K-independence probe. Zero when the rider is off.
	ObsReady     time.Duration `json:",omitempty"` // obs-on time-to-ready
	ObsDriftPct  float64       `json:",omitempty"` // |obs-on − obs-off| / obs-off, percent
	SeedSrcB     uint64        `json:",omitempty"` // seed.src.bytes: seed body bytes injected at the root
	SeedLinkMaxB uint64        `json:",omitempty"` // seed.link.bytes.max: busiest seed link, fabric-wide
	ReduceFEB    uint64        `json:",omitempty"` // coll.reduce.fe.rx.bytes: reduce bytes landing on the FE link

	// Simulator host-cost columns (launchMillion only): the event-driven
	// simnet budget that lets K=2^20 fit a 16 GB runner. GoroutinesPeak is
	// vtime.Sim.PeakLive over the whole run — every simulated process main
	// plus every transient helper the fabric ever parked at once;
	// GoroutinesPerNode normalizes by K (one per node plus a constant).
	// RSSPeakB is the host process's peak resident set (VmHWM), a
	// machine-dependent observable: report it, never pin it.
	GoroutinesPeak    int     `json:",omitempty"`
	GoroutinesPerNode float64 `json:",omitempty"`
	RSSPeakB          uint64  `json:",omitempty"`
}

// launchPipeOpts parameterize the launch sweeps.
type launchPipeOpts struct {
	// TasksPerNode sizes the RPDTAB (1 in every sweep, like the other
	// 16384-scale sweeps: table memory at the FE bounds task count, not
	// virtual time).
	TasksPerNode int
	Fanout       int // ICCL tree fanout
	// Obs adds the observability rider: every row is measured a second
	// time with Options.Obs = ObsOn, populating the Obs*/Seed*/Reduce*
	// columns (checked by checkObsInvariants).
	Obs bool
}

// launchPipeModes are the two measured pipelines: the serialized
// full-retention baseline and the rank-sliced cut-through default.
var launchPipeModes = []core.SeedMode{core.SeedStoreForward, core.SeedCutThrough}

// retentionOf names the per-daemon RPDTAB retention a seed pipeline
// implies (the Table column of every launch row).
func retentionOf(mode core.SeedMode) string {
	if mode == core.SeedStoreForward {
		return "full"
	}
	return "sliced"
}

// launchPipeline measures the cut-through pipeline at each scale and the
// store-forward baseline at those of them that are also in fullScales:
// its K private full-table copies outgrow a runner long before the
// simulator does (fullTableFootprint), so callers cap it separately.
func launchPipeline(o launchPipeOpts, scales, fullScales []int) ([]launchPipeRow, error) {
	rows := make([]launchPipeRow, 0, len(launchPipeModes)*len(scales))
	for _, k := range scales {
		for _, mode := range launchPipeModes {
			if mode == core.SeedStoreForward && !slices.Contains(fullScales, k) {
				continue
			}
			row, err := measureLaunchPipe(k, mode, o, false)
			if err != nil {
				return nil, fmt.Errorf("launch pipeline %v at K=%d: %w", mode, k, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// tableHash fingerprints a daemon's reassembled seed for the
// byte-identical check.
func tableHash(encoded []byte) []byte {
	h := fnv.New64a()
	h.Write(encoded)
	return h.Sum(nil)
}

// launchPipeBE is the ablation's back-end daemon: it gathers its own rank
// slice (both pipelines have one) prefixed by a fingerprint of its full
// table copy — empty under cut-through, where no such copy exists and
// materializing one through Proctab would defeat the measurement.
func launchPipeBE(p *cluster.Proc, be *core.BackEnd) {
	var full []byte
	if p.Env(core.EnvSeedMode) == core.SeedStoreForward.String() {
		full = tableHash(be.Proctab().Encode())
	}
	payload := lmonp.AppendBytes(nil, full)
	payload = lmonp.AppendBytes(payload, be.MyProctab().Encode())
	be.Collective().Gather(payload)
	be.Finalize()
}

// checkLaunchTables verifies the gathered contributions against the FE's
// table: the union of the per-daemon rank slices must be byte-identical
// to the full table, and under full retention every daemon's own copy
// must fingerprint like the FE's.
func checkLaunchTables(contribs [][]byte, feTab proctab.Table, fullCopies bool) bool {
	want := append(proctab.Table(nil), feTab...)
	want.SortByRank()
	fullHash := string(tableHash(feTab.Encode()))
	var union proctab.Table
	for _, raw := range contribs {
		rd := lmonp.NewReader(raw)
		full, sliceRaw := rd.Bytes(), rd.Bytes()
		if rd.Err() != nil || fullCopies && string(full) != fullHash {
			return false
		}
		slice, err := proctab.Decode(sliceRaw)
		if err != nil {
			return false
		}
		union = append(union, slice...)
	}
	union.SortByRank()
	return bytes.Equal(union.Encode(), want.Encode())
}

// roleMem splits the gathered per-daemon table footprints by tree role.
func roleMem(row *launchPipeRow, infos []core.DaemonInfo, fanout int) {
	size := len(infos)
	eff := fanout
	if eff <= 0 {
		eff = size // flat: rank 0 parents everyone
	}
	for _, d := range infos {
		switch {
		case d.Rank == 0:
			row.MemMaster = max(row.MemMaster, d.PeakBytes)
		case len(iccl.Children(d.Rank, size, eff)) > 0:
			row.MemInterior = max(row.MemInterior, d.PeakBytes)
		default:
			row.MemLeaf = max(row.MemLeaf, d.PeakBytes)
		}
	}
}

// launchPipeScenario is the launch whose time-to-ready a pipeline row
// reports. The lean form is the million sweep's: RM and LaunchMON only,
// and daemons that finalize at once — at that scale the full rig's two
// parked system processes per node cost more host memory than LaunchMON
// itself, and there is no full retention to verify slices against.
func launchPipeScenario(k int, mode core.SeedMode, o launchPipeOpts, lean bool) Scenario {
	sc := Scenario{Nodes: k, Lean: lean, BE: launchPipeBE, Opts: core.Options{
		Job:        rm.JobSpec{Exe: "app", Nodes: k, TasksPerNode: o.TasksPerNode},
		Daemon:     rm.DaemonSpec{Exe: "lp_be"},
		ICCLFanout: o.Fanout,
		SeedMode:   mode,
	}}
	if lean {
		sc.Opts.Daemon.Exe, sc.BE = "million_be", nil
	}
	return sc
}

func measureLaunchPipe(k int, mode core.SeedMode, o launchPipeOpts, lean bool) (launchPipeRow, error) {
	row := launchPipeRow{
		Mode:    mode.String(),
		Table:   retentionOf(mode),
		Daemons: k,
		Tasks:   k * o.TasksPerNode,
	}
	sc := launchPipeScenario(k, mode, o, lean)
	sc.FE = func(r *Run) error {
		row.Ready = r.Ready
		tab := r.Sess.Proctab()
		row.TableOK = lean // the lean sweep's pipeline is verified below, at K≤16384
		if !lean {
			// Every daemon gathers its rank slice (plus, under full
			// retention, a full-copy fingerprint) to the FE over the
			// collective plane — after the launch, so verification does not
			// perturb the time-to-ready measurement.
			contribs, err := r.Sess.Gather()
			if err != nil {
				return err
			}
			row.TableOK = len(contribs) == k && checkLaunchTables(contribs, tab, mode == core.SeedStoreForward)
		}
		for _, chunk := range tab.EncodeChunks(0) {
			row.MemEngine = max(row.MemEngine, len(chunk))
		}
		row.MemFE = tab.MemBytes()
		if mode == core.SeedCutThrough {
			sorted := append(proctab.Table(nil), tab...)
			sorted.SortByRank()
			idx, err := proctab.BuildIndex(sorted)
			if err != nil {
				return err
			}
			row.MemIndex = idx.MemBytes()
		}
		roleMem(&row, r.Sess.Daemons(), o.Fanout)
		return nil
	}
	r, err := sc.Run()
	if lean && r != nil {
		// Host-cost columns: the sweep's budget is one parked goroutine per
		// simulated node plus a constant (DESIGN.md "Simulator cost model").
		row.GoroutinesPeak = r.Sim.PeakLive()
		row.GoroutinesPerNode = float64(row.GoroutinesPeak) / float64(k)
		row.RSSPeakB = hostRSSPeak()
	}
	if err == nil && o.Obs {
		err = measureLaunchPipeObs(&row, k, mode, o)
	}
	return row, err
}

// printLaunchPipeline renders the comparison.
func printLaunchPipeline(w io.Writer, rows []launchPipeRow) {
	fmt.Fprintln(w, "Ablation — launch pipeline (time to DaemonsSpawned, slice union byte-identical at the FE)")
	fmt.Fprintln(w, "mode           table   daemons    tasks   ready      master-B  interior-B  leaf-B  tables")
	for _, r := range rows {
		ok := "identical"
		if !r.TableOK {
			ok = "MISMATCH"
		}
		fmt.Fprintf(w, "%-14s %-7s %7d %8d %8.3fs %9d %11d %7d  %s\n",
			r.Mode, r.Table, r.Daemons, r.Tasks, r.Ready.Seconds(), r.MemMaster, r.MemInterior, r.MemLeaf, ok)
	}
}

// printLaunchMem renders the full per-role peak-memory breakdown of a
// launch sweep (lmonbench -mem).
func printLaunchMem(w io.Writer, rows []launchPipeRow) {
	fmt.Fprintln(w, "Peak RPDTAB bytes per role (index is session-shared, counted once)")
	fmt.Fprintln(w, "mode           table   daemons  engine-B      fe-B   index-B  master-B  interior-B  leaf-B")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-7s %7d %9d %9d %9d %9d %11d %7d\n",
			r.Mode, r.Table, r.Daemons, r.MemEngine, r.MemFE, r.MemIndex, r.MemMaster, r.MemInterior, r.MemLeaf)
	}
}
