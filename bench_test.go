package launchmon_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"launchmon/internal/bench"
	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/iccl"
	"launchmon/internal/lmonp"
	"launchmon/internal/vtime"
)

// One benchmark per table/figure of the paper's evaluation, plus the
// ablations. Each iteration regenerates the complete experiment on a
// fresh simulated cluster; reported ns/op is host time to simulate the
// whole sweep (the virtual-time results themselves are printed by
// cmd/lmonbench and recorded in EXPERIMENTS.md). Every benchmark reports
// allocations, and the ones that report virtual-time metrics put the host
// clock beside them (hostWall), so `go test -bench` shows both clocks.

// hostWall reports the host wall time one iteration spent per simulated
// daemon of its sweep.
func hostWall(b *testing.B, daemons int) {
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/float64(daemons), "host-us/daemon")
}

// BenchmarkFigure3_LaunchAndSpawnModelVsMeasured regenerates Figure 3:
// the launchAndSpawn component breakdown and analytic-model comparison,
// 16..128 daemons at 8 tasks/daemon.
func BenchmarkFigure3_LaunchAndSpawnModelVsMeasured(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(bench.Figure3Scales) {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

// BenchmarkFigure5_Jobsnap regenerates Figure 5: Jobsnap total and
// init→attachAndSpawn times, 64..1024 daemons (512..8192 tasks).
func BenchmarkFigure5_Jobsnap(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(bench.Figure5Scales) {
			b.Fatal("row count")
		}
	}
}

// BenchmarkFigure6_STATStartup regenerates Figure 6: STAT launch+connect,
// MRNet-rsh vs LaunchMON, 4..512 daemons with the rsh failure at 512.
func BenchmarkFigure6_STATStartup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		if !rows[len(rows)-1].MRNetFailed {
			b.Fatal("rsh did not fail at 512")
		}
	}
}

// BenchmarkTable1_OSSAPAIAccess regenerates Table 1: O|SS APAI access
// times, DPCL vs LaunchMON, 2..32 nodes.
func BenchmarkTable1_OSSAPAIAccess(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(bench.Table1Scales) {
			b.Fatal("row count")
		}
	}
}

// BenchmarkAblation_BGL contrasts the SLURM-like and BG/L-like RM cost
// profiles (§4's closing observation).
func BenchmarkAblation_BGL(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.BGLAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_ICCLFanout sweeps the ICCL tree fan-out at 128
// daemons.
func BenchmarkAblation_ICCLFanout(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationFanout(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Piggyback compares piggybacked vs separate tool-data
// delivery.
func BenchmarkAblation_Piggyback(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationPiggyback(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_ProctabDistribution compares RPDTAB broadcast vs the
// shared-file mechanism.
func BenchmarkAblation_ProctabDistribution(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationProctab(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_DebugEvents contrasts fixed vs scale-growing RM debug
// events.
func BenchmarkAblation_DebugEvents(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationDebugEvents(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_ConcurrentSessions launches K ∈ {1,4,8} concurrent
// sessions from one FE process over a single transport mux and reports
// the aggregate session-setup throughput at each K.
func BenchmarkAblation_ConcurrentSessions(b *testing.B) {
	b.ReportAllocs()
	var rows []bench.ConcurrentRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.ConcurrentSessions(bench.ConcurrentSessionOpts{}, bench.ConcurrentScales)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(bench.ConcurrentScales) {
			b.Fatalf("%d rows", len(rows))
		}
	}
	daemons := 0
	for _, r := range rows {
		b.ReportMetric(r.Throughput, fmt.Sprintf("sessions/vsec-K%d", r.Sessions))
		daemons += r.Sessions * r.NodesEach
	}
	hostWall(b, daemons)
}

// BenchmarkAblation_FailureDetection kills the deepest-ranked daemon's
// node mid-session at K ∈ {64, 1024, 16384} and reports how long (in
// virtual time) the loss takes to reach the front end as a DaemonExited
// callback plus the time to full watchdog teardown, and sweeps heartbeat
// wire overhead vs period on an idle 256-daemon session.
func BenchmarkAblation_FailureDetection(b *testing.B) {
	b.ReportAllocs()
	var rows []bench.FailureRow
	var overhead []bench.OverheadRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.FailureDetection(bench.FailureOpts{}, bench.FailureScales)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(bench.FailureScales) {
			b.Fatalf("%d rows", len(rows))
		}
		overhead, err = bench.HeartbeatOverhead(256, bench.OverheadPeriods, 30*time.Second)
		if err != nil {
			b.Fatal(err)
		}
	}
	daemons := 0
	for _, r := range rows {
		b.ReportMetric(r.DetectSever.Seconds()*1e3, fmt.Sprintf("detect-vms-K%d", r.Nodes))
		b.ReportMetric(r.Teardown.Seconds()*1e3, fmt.Sprintf("teardown-vms-K%d", r.Nodes))
		daemons += 2 * r.Nodes // a severed-link run and a silent-loss run
	}
	for _, r := range overhead {
		b.ReportMetric(r.MsgsPerSec, fmt.Sprintf("hb-msgs-per-vsec-p%s", r.Period))
		daemons += r.Nodes
	}
	hostWall(b, daemons)
}

// BenchmarkAblation_Collective compares the flat FE↔BE-master pipe (every
// gathered byte relayed monolithically through the master) against the
// tree-routed collective plane at K ∈ {64, 1024, 16384}: per-link message
// counts are bounded by the fanout and chunk size instead of K, so the
// tree gather must beat the flat-master gather at the largest scale, and
// the sum reduction's FE-bound payload is K-independent outright.
func BenchmarkAblation_Collective(b *testing.B) {
	b.ReportAllocs()
	var rows []bench.CollectiveRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.CollectiveAblation(bench.CollectiveOpts{}, bench.CollectiveScales)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(bench.CollectiveScales) {
			b.Fatalf("%d rows", len(rows))
		}
		last := rows[len(rows)-1]
		if last.TreeGather >= last.FlatGather {
			b.Fatalf("tree gather (%v) not faster than flat-master gather (%v) at K=%d",
				last.TreeGather, last.FlatGather, last.Daemons)
		}
	}
	daemons := 0
	for _, r := range rows {
		b.ReportMetric(r.FlatGather.Seconds()*1e3, fmt.Sprintf("flat-gather-vms-K%d", r.Daemons))
		b.ReportMetric(r.TreeGather.Seconds()*1e3, fmt.Sprintf("tree-gather-vms-K%d", r.Daemons))
		b.ReportMetric(r.ReduceSum.Seconds()*1e3, fmt.Sprintf("reduce-sum-vms-K%d", r.Daemons))
		daemons += r.Daemons
	}
	hostWall(b, daemons)
}

// BenchmarkAblation_LaunchPipeline compares time-to-DaemonsSpawned under
// the serialized store-and-forward seed pipeline (full-table buffering at
// the FE and the master, monolithic post-bootstrap broadcast, a full copy
// retained at every daemon) against the cut-through pipeline (chunks
// relayed as they arrive and streamed through the still-forming ICCL
// tree, rank slices over a shared index) at K ∈ {64, 1024, 16384} — the
// store-forward row only where its K full-table copies fit
// bench.DefaultMemLimit. Cut-through must be measurably faster at the
// largest scale both ran at, every run must leave the union of the
// daemons' rank slices byte-identical to the FE table, and sliced
// retention must shrink the leaf-daemon footprint by at least an order of
// magnitude there.
func BenchmarkAblation_LaunchPipeline(b *testing.B) {
	b.ReportAllocs()
	var fullScales []int
	for _, k := range bench.LaunchScales {
		if bench.SimFootprint(k)+bench.FullTableFootprint(k, 1) <= bench.DefaultMemLimit {
			fullScales = append(fullScales, k)
		}
	}
	var rows []bench.LaunchPipeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.LaunchPipeline(bench.LaunchPipeOpts{}, bench.LaunchScales, fullScales)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(bench.LaunchScales)+len(fullScales) {
			b.Fatalf("%d rows", len(rows))
		}
		byCfg := map[string]map[int]bench.LaunchPipeRow{}
		for _, r := range rows {
			if !r.TableOK {
				b.Fatalf("mode %s/%s K=%d: RPDTAB slice union not byte-identical", r.Mode, r.Table, r.Daemons)
			}
			key := r.Mode + "/" + r.Table
			if byCfg[key] == nil {
				byCfg[key] = map[int]bench.LaunchPipeRow{}
			}
			byCfg[key][r.Daemons] = r
		}
		maxK := fullScales[len(fullScales)-1]
		full, sliced := byCfg["store-forward/full"][maxK], byCfg["cut-through/sliced"][maxK]
		if sliced.Ready >= full.Ready {
			b.Fatalf("cut-through (%v) not below store-and-forward (%v) at K=%d",
				sliced.Ready, full.Ready, maxK)
		}
		if sliced.MemLeaf*10 > full.MemLeaf {
			b.Fatalf("sliced leaf footprint %d B not 10x below full %d B at K=%d",
				sliced.MemLeaf, full.MemLeaf, maxK)
		}
	}
	daemons := 0
	for _, r := range rows {
		daemons += r.Daemons
		b.ReportMetric(r.Ready.Seconds()*1e3, fmt.Sprintf("%s-%s-ready-vms-K%d", r.Mode, r.Table, r.Daemons))
		if r.Table == "sliced" {
			b.ReportMetric(float64(r.MemMaster), fmt.Sprintf("sliced-master-peakB-K%d", r.Daemons))
			b.ReportMetric(float64(r.MemInterior), fmt.Sprintf("sliced-interior-peakB-K%d", r.Daemons))
			b.ReportMetric(float64(r.MemLeaf), fmt.Sprintf("sliced-leaf-peakB-K%d", r.Daemons))
		}
	}
	hostWall(b, daemons)
}

// BenchmarkAblation_MWPipeline measures LaunchMW time-to-ready under the
// cut-through seed streamed through the still-forming MW tree, at
// K ∈ {64, 1024, 16384} middleware daemons. Every MW rank must read a
// byte-identical RPDTAB.
func BenchmarkAblation_MWPipeline(b *testing.B) {
	b.ReportAllocs()
	var rows []bench.MWPipeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.MWPipeline(bench.MWPipeOpts{}, bench.MWScales)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(bench.MWScales) {
			b.Fatalf("%d rows", len(rows))
		}
		for _, r := range rows {
			if !r.TableOK {
				b.Fatalf("K=%d: MW RPDTAB not byte-identical at every rank", r.Daemons)
			}
		}
	}
	daemons := 0
	for _, r := range rows {
		b.ReportMetric(r.Ready.Seconds()*1e3, fmt.Sprintf("%s-mw-ready-vms-K%d", r.Mode, r.Daemons))
		daemons += r.Daemons
	}
	hostWall(b, daemons)
}

// BenchmarkAblation_JobsnapTree quantifies the paper's §5.1 future-work
// suggestion: Jobsnap with a TBŌN-style k-ary collection tree vs the flat
// gather it measured.
func BenchmarkAblation_JobsnapTree(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationJobsnapTree(); err != nil {
			b.Fatal(err)
		}
	}
}

// The two data-plane benchmarks below run on a bare ICCL tree (no RM, no
// core) of sample_loop's fanout, three levels deep, and report host cost
// per operation with SetBytes = the bytes the operation delivers (payload ×
// daemons), so B/op next to it reads as allocation per delivered byte:
// the zero-copy data plane keeps it near 1 (the copy each daemon hands its
// tool) where per-hop re-encoding paid for every child link again.
const (
	planeTreeSize   = 273 // 1 + 16 + 256
	planeTreeFanout = 16
)

// planeCluster builds the bare cluster the tree runs on.
func planeCluster(b *testing.B) *cluster.Cluster {
	b.Helper()
	cl, err := cluster.New(vtime.New(), cluster.Options{Nodes: planeTreeSize})
	if err != nil {
		b.Fatal(err)
	}
	return cl
}

// icclTree boots one daemon per node of cl into a tree with boot and runs
// body on it, failing the benchmark on any daemon's error.
func icclTree(b *testing.B, cl *cluster.Cluster,
	boot func(p *cluster.Proc, cfg iccl.Config) (*iccl.Comm, error),
	body func(c *iccl.Comm, p *cluster.Proc) error) {
	b.Helper()
	sim, n := cl.Sim(), planeTreeSize
	nodelist := make([]string, n)
	for i := range nodelist {
		nodelist[i] = cl.Node(i).Name()
	}
	errs := make([]error, n)
	sim.Go("boot", func() {
		for i := 0; i < n; i++ {
			i := i
			if _, err := cl.Node(i).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
				c, err := boot(p, iccl.Config{Rank: i, Size: n, Fanout: planeTreeFanout, Nodelist: nodelist, Port: 50001})
				if err != nil {
					errs[i] = err
					return
				}
				defer c.Close()
				errs[i] = body(c, p)
			}}); err != nil {
				errs[i] = err
				return
			}
		}
	})
	sim.Run()
	for i, err := range errs {
		if err != nil {
			b.Fatalf("daemon %d: %v", i, err)
		}
	}
}

// BenchmarkPlaneBroadcast32K is sample_loop's tagged broadcast in
// isolation: a 32 KiB payload in 4 KiB chunks down the tree, b.N times on
// one formed tree (the timer starts once the tree and its link demuxes are
// up).
func BenchmarkPlaneBroadcast32K(b *testing.B) {
	const chunk = 4 << 10
	payload := bytes.Repeat([]byte("launchmon-32KiB-"), 2<<10)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)) * planeTreeSize)
	// The root's FE side: broadcast i arrives as the frames of lockstep tag i.
	var pending []coll.Frame
	down := func(tag uint32) (coll.Frame, error) {
		if len(pending) == 0 {
			pending = coll.RawFrames(coll.OpBroadcast, tag, "", payload, chunk)
		}
		f := pending[0]
		pending = pending[1:]
		return f, nil
	}
	icclTree(b, planeCluster(b), iccl.Bootstrap, func(c *iccl.Comm, p *cluster.Proc) error {
		var fe iccl.DownFn
		if c.IsMaster() {
			fe = down
		}
		pl := c.NewPlane(chunk, 0, nil, fe)
		if err := pl.Barrier(); err != nil {
			return err
		}
		if c.IsMaster() {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			got, err := pl.Broadcast()
			if err != nil {
				return err
			}
			if len(got) != len(payload) {
				return fmt.Errorf("rank %d: broadcast %d delivered %d bytes", c.Rank(), i, len(got))
			}
		}
		return nil
	})
}

// BenchmarkSeedFEData64K is launch_fat's seed preamble in isolation: each
// iteration forms the tree while a seed stream whose only chunk is a
// 64 KiB FEData frame flows down it (cluster construction is not timed).
func BenchmarkSeedFEData64K(b *testing.B) {
	feData := bytes.Repeat([]byte("launchmon-64KiB-"), 4<<10)
	b.ReportAllocs()
	b.SetBytes(int64(len(feData)) * planeTreeSize)
	for i := 0; i < b.N; i++ {
		sent := 0
		src := func() (coll.Frame, error) {
			sent++
			if sent == 1 {
				return coll.Frame{H: coll.Header{Op: coll.OpSeed}, Body: feData, Sum: lmonp.Sum64(feData)}, nil
			}
			return coll.Frame{H: coll.Header{Op: coll.OpSeed, Index: 1}, End: true, Sum: lmonp.SumInit}, nil
		}
		b.StopTimer()
		cl := planeCluster(b)
		b.StartTimer()
		icclTree(b, cl, func(p *cluster.Proc, cfg iccl.Config) (*iccl.Comm, error) {
			var s iccl.SeedSource
			if cfg.Rank == 0 {
				s = src
			}
			c, seed, err := iccl.BootstrapSeedRouted(p, cfg, s, nil)
			if err != nil {
				return nil, err
			}
			for {
				f, err := seed.Next()
				if err != nil {
					return nil, err
				}
				if f.End {
					break
				}
				if len(f.Body) != len(feData) {
					return nil, fmt.Errorf("rank %d: FEData frame of %d bytes", cfg.Rank, len(f.Body))
				}
			}
			return c, seed.Wait()
		}, func(*iccl.Comm, *cluster.Proc) error { return nil })
	}
}
