package bench

import (
	"fmt"
	"io"
	"testing"
)

// BenchmarkExperiments regenerates the paper's evaluation: one
// sub-benchmark per result table of Experiments that -all runs (the
// figures, Table 1 and the ablations; the million-daemon sweep and the
// trace export are lmonbench's alone), named by its JSON stem. Each
// iteration runs the complete sweep on fresh simulated clusters at full
// scale under DefaultMemLimit; reported ns/op is host time to
// simulate it (the virtual-time results themselves are printed by
// cmd/lmonbench and recorded in EXPERIMENTS.md). Every sub-benchmark
// reports allocations, and the ones that report virtual-time metrics put
// the host clock beside them (hostWall), so `go test -bench` shows both
// clocks.
func BenchmarkExperiments(b *testing.B) {
	p := Params{MemLimit: DefaultMemLimit, Out: io.Discard}
	for _, e := range Experiments {
		if e.OwnFlagOnly {
			continue
		}
		for _, t := range e.Tables {
			t := t
			b.Run(t.Stem, func(b *testing.B) {
				b.ReportAllocs()
				var res result
				for i := 0; i < b.N; i++ {
					var err error
					if res, err = t.measure(p); err != nil {
						b.Fatal(err)
					}
					if res.N == 0 {
						b.Fatal("no rows")
					}
				}
				if check := rowChecks[t.Stem]; check != nil {
					if daemons := check(b, res.Rows); daemons > 0 {
						hostWall(b, daemons)
					}
				}
			})
		}
	}
}

// hostWall reports the host wall time one iteration spent per simulated
// daemon of its sweep.
func hostWall(b *testing.B, daemons int) {
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/float64(daemons), "host-us/daemon")
}

// wantRows fails the benchmark unless the sweep produced one row per scale.
func wantRows(b *testing.B, got int, scales []int) {
	if got != len(scales) {
		b.Fatalf("%d rows for scales %v", got, scales)
	}
}

// rowChecks holds, per JSON stem, what the paper or the design claims of
// that table's rows at full scale, reports the rows' virtual-time metrics,
// and returns the number of daemons the sweep simulated (0 = no hostWall).
var rowChecks = map[string]func(b *testing.B, rows any) (daemons int){
	// Figure 3: launchAndSpawn breakdown and analytic-model comparison,
	// 16..128 daemons at 8 tasks/daemon.
	"figure3": func(b *testing.B, rows any) int {
		wantRows(b, len(rows.([]fig3Row)), figure3Scales)
		return 0
	},
	// Figure 5: Jobsnap total and init→attachAndSpawn times, 64..1024
	// daemons (512..8192 tasks).
	"figure5": func(b *testing.B, rows any) int {
		wantRows(b, len(rows.([]fig5Row)), figure5Scales)
		return 0
	},
	// Figure 6: STAT launch+connect, MRNet-rsh vs LaunchMON, 4..512 daemons
	// with the rsh failure at 512.
	"figure6": func(b *testing.B, rows any) int {
		r := rows.([]fig6Row)
		if !r[len(r)-1].MRNetFailed {
			b.Fatal("rsh did not fail at 512")
		}
		return 0
	},
	// Table 1: O|SS APAI access times, DPCL vs LaunchMON, 2..32 nodes.
	"table1": func(b *testing.B, rows any) int {
		wantRows(b, len(rows.([]t1Row)), table1Scales)
		return 0
	},
	// K ∈ {1,4,8} concurrent sessions from one FE process over a single
	// transport mux: aggregate session-setup throughput at each K.
	"ablation_concurrent": func(b *testing.B, rows any) (daemons int) {
		r := rows.([]concurrentRow)
		wantRows(b, len(r), concurrentScales)
		for _, r := range r {
			b.ReportMetric(r.Throughput, fmt.Sprintf("sessions/vsec-K%d", r.Sessions))
			daemons += r.Sessions * r.NodesEach
		}
		return daemons
	},
	// The deepest-ranked daemon's node killed mid-session at K ∈ {64, 1024,
	// 16384}: virtual time until the loss reaches the front end as a
	// DaemonExited callback, and until full watchdog teardown.
	"failure_detection": func(b *testing.B, rows any) (daemons int) {
		r := rows.([]failureRow)
		wantRows(b, len(r), sweepScales)
		for _, r := range r {
			b.ReportMetric(r.DetectSever.Seconds()*1e3, fmt.Sprintf("detect-vms-K%d", r.Nodes))
			b.ReportMetric(r.Teardown.Seconds()*1e3, fmt.Sprintf("teardown-vms-K%d", r.Nodes))
			daemons += 2 * r.Nodes // a severed-link run and a silent-loss run
		}
		return daemons
	},
	// Heartbeat wire overhead vs period on an idle 256-daemon session.
	"heartbeat_overhead": func(b *testing.B, rows any) (daemons int) {
		for _, r := range rows.([]overheadRow) {
			b.ReportMetric(r.MsgsPerSec, fmt.Sprintf("hb-msgs-per-vsec-p%s", r.Period))
			daemons += r.Nodes
		}
		return daemons
	},
	// The flat FE↔BE-master pipe (every gathered byte relayed
	// monolithically through the master) against the tree-routed collective
	// plane at K ∈ {64, 1024, 16384}: per-link message counts are bounded by
	// the fanout and chunk size instead of K, so the tree gather must beat
	// the flat-master gather at the largest scale, and the sum reduction's
	// FE-bound payload is K-independent outright.
	"collective": func(b *testing.B, rows any) (daemons int) {
		r := rows.([]collectiveRow)
		wantRows(b, len(r), sweepScales)
		if last := r[len(r)-1]; last.TreeGather >= last.FlatGather {
			b.Fatalf("tree gather (%v) not faster than flat-master gather (%v) at K=%d",
				last.TreeGather, last.FlatGather, last.Daemons)
		}
		for _, r := range r {
			b.ReportMetric(r.FlatGather.Seconds()*1e3, fmt.Sprintf("flat-gather-vms-K%d", r.Daemons))
			b.ReportMetric(r.TreeGather.Seconds()*1e3, fmt.Sprintf("tree-gather-vms-K%d", r.Daemons))
			b.ReportMetric(r.ReduceSum.Seconds()*1e3, fmt.Sprintf("reduce-sum-vms-K%d", r.Daemons))
			daemons += r.Daemons
		}
		return daemons
	},
	// Time-to-DaemonsSpawned under the serialized store-and-forward seed
	// pipeline against the cut-through pipeline at K ∈ {64, 1024, 16384} —
	// the store-forward row only where its K full-table copies fit
	// DefaultMemLimit. Cut-through must be measurably faster at the
	// largest scale both ran at, every run must leave the union of the
	// daemons' rank slices byte-identical to the FE table, and sliced
	// retention must shrink the leaf-daemon footprint by at least an order
	// of magnitude there.
	"launchpipe": func(b *testing.B, rows any) (daemons int) {
		byCfg := map[string]map[int]launchPipeRow{}
		maxFull := 0
		for _, r := range rows.([]launchPipeRow) {
			if !r.TableOK {
				b.Fatalf("mode %s/%s K=%d: RPDTAB slice union not byte-identical", r.Mode, r.Table, r.Daemons)
			}
			key := r.Mode + "/" + r.Table
			if byCfg[key] == nil {
				byCfg[key] = map[int]launchPipeRow{}
			}
			byCfg[key][r.Daemons] = r
			if r.Table == "full" {
				maxFull = max(maxFull, r.Daemons)
			}
			daemons += r.Daemons
			b.ReportMetric(r.Ready.Seconds()*1e3, fmt.Sprintf("%s-%s-ready-vms-K%d", r.Mode, r.Table, r.Daemons))
			if r.Table == "sliced" {
				b.ReportMetric(float64(r.MemMaster), fmt.Sprintf("sliced-master-peakB-K%d", r.Daemons))
				b.ReportMetric(float64(r.MemInterior), fmt.Sprintf("sliced-interior-peakB-K%d", r.Daemons))
				b.ReportMetric(float64(r.MemLeaf), fmt.Sprintf("sliced-leaf-peakB-K%d", r.Daemons))
			}
		}
		wantRows(b, len(byCfg["cut-through/sliced"]), sweepScales)
		full, sliced := byCfg["store-forward/full"][maxFull], byCfg["cut-through/sliced"][maxFull]
		if maxFull == 0 || sliced.Ready >= full.Ready {
			b.Fatalf("cut-through (%v) not below store-and-forward (%v) at K=%d", sliced.Ready, full.Ready, maxFull)
		}
		if sliced.MemLeaf*10 > full.MemLeaf {
			b.Fatalf("sliced leaf footprint %d B not 10x below full %d B at K=%d", sliced.MemLeaf, full.MemLeaf, maxFull)
		}
		return daemons
	},
	// LaunchMW time-to-ready under the cut-through seed streamed through
	// the still-forming MW tree, at K ∈ {64, 1024, 16384} middleware
	// daemons. Every MW rank must read a byte-identical RPDTAB.
	"mwpipe": func(b *testing.B, rows any) (daemons int) {
		r := rows.([]mwPipeRow)
		wantRows(b, len(r), sweepScales)
		for _, r := range r {
			if !r.TableOK {
				b.Fatalf("K=%d: MW RPDTAB not byte-identical at every rank", r.Daemons)
			}
			b.ReportMetric(r.Ready.Seconds()*1e3, fmt.Sprintf("%s-mw-ready-vms-K%d", r.Mode, r.Daemons))
			daemons += r.Daemons
		}
		return daemons
	},
}
