package launchmon_test

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"testing"

	"launchmon/internal/bench"
	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/core"
	"launchmon/internal/iccl"
	"launchmon/internal/lmonp"
	"launchmon/internal/proctab"
	"launchmon/internal/rm"
	"launchmon/internal/vtime"
)

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
// up). parks/rank is how often a daemon's goroutine blocks per broadcast —
// one, for every rank but the root: the down phase runs on the scheduler —
// and allocs/rank the objects one rank's share of a broadcast costs.
func BenchmarkPlaneBroadcast32K(b *testing.B) {
	const chunk = 4 << 10
	payload := bytes.Repeat([]byte("launchmon-32KiB-"), 2<<10)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)) * planeTreeSize)
	cl := planeCluster(b)
	var parks0 uint64
	var m0, m1 runtime.MemStats
	icclTree(b, cl, iccl.Bootstrap, func(c *iccl.Comm, p *cluster.Proc) error {
		pl := c.NewPlane(chunk, 0, nil, nil)
		if _, err := pl.AllGather(nil); err != nil {
			return err
		}
		if c.IsMaster() {
			b.ResetTimer()
			parks0 = cl.Sim().Parks()
			runtime.ReadMemStats(&m0)
		}
		for i := 0; i < b.N; i++ {
			if c.IsMaster() {
				// The root's front end: broadcast i is lockstep tag i+1.
				for _, f := range coll.RawFrames(coll.OpBroadcast, uint32(i+1), "", payload, chunk) {
					pl.PushFE(f)
				}
			}
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
	runtime.ReadMemStats(&m1)
	perRank := float64(b.N) * planeTreeSize
	b.ReportMetric(float64(cl.Sim().Parks()-parks0)/perRank, "parks/rank")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/perRank, "allocs/rank")
}

// BenchmarkPlaneGatherReduce is sample_loop's up-heavy half in isolation: a
// lockstep Gather of 64–1023 B per rank and a tagged sum ReduceTag of eight
// counters, in 4 KiB chunks under a window of 4, b.N times on one formed
// tree. parks/rank is how often a daemon's goroutine blocks per pair of
// operations — at most one each, every up phase runs on the scheduler —
// and allocs/rank what one rank's share of the pair costs.
func BenchmarkPlaneGatherReduce(b *testing.B) {
	const chunk, window, tag = 4 << 10, 4, coll.MinUserTag
	b.ReportAllocs()
	counters := make([]byte, 8*8)
	cl := planeCluster(b)
	var parks0 uint64
	var m0, m1 runtime.MemStats
	icclTree(b, cl, iccl.Bootstrap, func(c *iccl.Comm, p *cluster.Proc) error {
		contrib := bytes.Repeat([]byte{byte(c.Rank())}, 64+c.Rank()*960/planeTreeSize)
		var up iccl.UpFn
		if c.IsMaster() {
			up = func(coll.Frame) error { return nil }
		}
		pl := c.NewPlane(chunk, window, up, nil)
		if _, err := pl.AllGather(nil); err != nil {
			return err
		}
		if c.IsMaster() {
			b.ResetTimer()
			parks0 = cl.Sim().Parks()
			runtime.ReadMemStats(&m0)
		}
		for i := 0; i < b.N; i++ {
			if err := pl.Gather(contrib); err != nil {
				return err
			}
			if err := pl.ReduceTag(tag, counters, "sum"); err != nil {
				return err
			}
		}
		return nil
	})
	runtime.ReadMemStats(&m1)
	perRank := float64(b.N) * planeTreeSize
	b.ReportMetric(float64(cl.Sim().Parks()-parks0)/perRank, "parks/rank")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/perRank, "allocs/rank")
}

// BenchmarkSeedFEData64K is launch_fat's seed preamble in isolation: each
// iteration forms the tree while a seed stream whose only chunk is a
// 64 KiB FEData frame flows down it (cluster construction is not timed).
func BenchmarkSeedFEData64K(b *testing.B) {
	feData := bytes.Repeat([]byte("launchmon-64KiB-"), 4<<10)
	b.ReportAllocs()
	b.SetBytes(int64(len(feData)) * planeTreeSize)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl := planeCluster(b)
		b.StartTimer()
		icclTree(b, cl, func(p *cluster.Proc, cfg iccl.Config) (*iccl.Comm, error) {
			f := iccl.NewForming(p, cfg, iccl.TablelessRoute, func(f coll.Frame, _ proctab.Chunk) error {
				if !f.End && len(f.Body) != len(feData) {
					return fmt.Errorf("rank %d: FEData frame of %d bytes", cfg.Rank, len(f.Body))
				}
				return nil
			}, nil)
			if cfg.Rank == 0 {
				cl.Sim().After(0, func() {
					f.Feed(coll.Frame{H: coll.Header{Op: coll.OpSeed}, Body: feData, Sum: lmonp.Sum64(feData)})
					f.Feed(coll.Frame{H: coll.Header{Op: coll.OpSeed, Index: 1}, End: true, Sum: lmonp.SumInit})
				})
			}
			return f.Run(nil)
		}, func(*iccl.Comm, *cluster.Proc) error { return nil })
	}
}

// launchMeter brackets a benchmark's LaunchAndSpawn calls, each between two
// forced collections, and sums what they allocated (B, allocs), what they
// left live (HeapAlloc), and what the collector has to do about it: the
// scannable heap and the objects they left (runtime/metrics
// /gc/scan/heap:bytes, /gc/heap/objects:objects) and the share of CPU the
// collector took while they ran, the closing forced collection included
// (/cpu/classes/gc/total:cpu-seconds over /cpu/classes/total:cpu-seconds,
// which the runtime brings up to date at the end of each collection). It
// also sums the simulation's parks (Sim.Parks) and the goroutine stacks the
// calls left in use (MemStats.StackInuse), reported a daemon.
type launchMeter struct {
	allocB, allocs uint64
	liveB, scanB   int64
	objects        int64
	stackB         int64
	parks          uint64
	gcCPU, cpu     float64
}

// gcSamples are what launchMeter reads from runtime/metrics, in this order.
var gcSamples = []string{
	"/gc/scan/heap:bytes",
	"/gc/heap/objects:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// gcReading returns samples for gcSamples, named and not yet read.
func gcReading() []metrics.Sample {
	s := make([]metrics.Sample, len(gcSamples))
	for i, name := range gcSamples {
		s[i].Name = name
	}
	return s
}

// settle forces a collection and reads the heap and the collector's
// metrics into s.
func settle(m *runtime.MemStats, s []metrics.Sample) {
	runtime.GC()
	runtime.ReadMemStats(m)
	metrics.Read(s)
}

// measure runs launch, the timed call on sim, between two settles; the
// samples are made before either, so the reading allocates nothing it
// counts.
func (lm *launchMeter) measure(sim *vtime.Sim, launch func() error) error {
	var before, after runtime.MemStats
	s0, s1 := gcReading(), gcReading()
	settle(&before, s0)
	parks := sim.Parks()
	if err := launch(); err != nil {
		return err
	}
	lm.parks += sim.Parks() - parks
	settle(&after, s1)
	lm.stackB += int64(after.StackInuse) - int64(before.StackInuse)
	lm.allocB += after.TotalAlloc - before.TotalAlloc
	lm.allocs += after.Mallocs - before.Mallocs
	lm.liveB += int64(after.HeapAlloc) - int64(before.HeapAlloc)
	lm.scanB += int64(s1[0].Value.Uint64()) - int64(s0[0].Value.Uint64())
	lm.objects += int64(s1[1].Value.Uint64()) - int64(s0[1].Value.Uint64())
	lm.gcCPU += s1[2].Value.Float64() - s0[2].Value.Float64()
	lm.cpu += s1[3].Value.Float64() - s0[3].Value.Float64()
	return nil
}

// report puts the sums per unit of work — a daemon, a task — and the parks
// and stack bytes per daemon.
func (lm *launchMeter) report(b *testing.B, units float64, unit string, daemons float64) {
	b.ReportMetric(float64(lm.parks)/daemons, "parks/daemon")
	b.ReportMetric(float64(lm.stackB)/daemons, "stack-B/daemon")
	b.ReportMetric(float64(lm.allocB)/units, "B/"+unit)
	b.ReportMetric(float64(lm.allocs)/units, "allocs/"+unit)
	b.ReportMetric(float64(lm.liveB)/units, "live-B/"+unit)
	b.ReportMetric(float64(lm.scanB)/units, "scan-B/"+unit)
	b.ReportMetric(float64(lm.objects)/units, "objects/"+unit)
	if lm.cpu > 0 {
		b.ReportMetric(100*lm.gcCPU/lm.cpu, "gc-cpu-%")
	}
}

// BenchmarkLaunchFat is the benchmark's launch_fat workload at 1/32 of its
// daemons with profile flags in reach (`go test -run '^$' -bench LaunchFat
// -memprofile F .`; benchmark/ has none): 64 daemons × 256 tasks, 64 KiB
// FEData, slurmd tree of the default fanout (two levels), ICCL fanout 4 so
// the seed splitter re-packs the table on three tree levels. B/task is the
// allocation of the LaunchAndSpawn call alone, the workload's timed section;
// B/op also counts the rig. live-B/task is the heap that call leaves live
// (HeapAlloc after a forced GC, on its return minus before it), the
// seconds-fast proxy for the workload's live_MB; scan-B/task, objects/task,
// gc-cpu-%, parks/daemon and stack-B/daemon are the rest of launchMeter's
// reading.
func BenchmarkLaunchFat(b *testing.B) {
	const nodes, tasks = 64, 256
	feData := bytes.Repeat([]byte("launchmon-64KiB-"), 4<<10)
	b.ReportAllocs()
	var lm launchMeter
	for i := 0; i < b.N; i++ {
		_, err := bench.Scenario{
			Nodes: nodes, Lean: true,
			Boot: func(cl *cluster.Cluster) error {
				cl.Register("fat_be", func(p *cluster.Proc) {
					be, err := core.BEInit(p)
					if err != nil {
						return
					}
					be.Collective().Gather(be.MyProctab().Encode())
					be.Finalize()
				})
				return nil
			},
			FE: func(r *bench.Run) error {
				var sess *core.Session
				if err := lm.measure(r.P.Sim(), func() (err error) {
					sess, err = core.LaunchAndSpawn(r.P, core.Options{
						Job:        rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: tasks},
						Daemon:     rm.DaemonSpec{Exe: "fat_be"},
						ICCLFanout: 4,
						FEData:     feData,
					})
					return err
				}); err != nil {
					return err
				}
				if n := len(sess.Proctab()); n != nodes*tasks {
					return fmt.Errorf("front-end table has %d entries", n)
				}
				if _, err := sess.Gather(); err != nil {
					return err
				}
				return sess.Kill()
			},
		}.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	lm.report(b, float64(b.N)*nodes*tasks, "task", float64(b.N)*nodes)
}

// BenchmarkLaunchWide is the benchmark's launch_wide workload at 1/16 of its
// daemons, measured like BenchmarkLaunchFat: 1024 daemons × 1 task, ICCL
// fanout 64, daemons parked on a broadcast until the kill. The per-daemon
// cost of the slurmd tree, the spawn and the ICCL bootstrap is nearly all
// of it; B/daemon, allocs/daemon and parks/daemon are the LaunchAndSpawn
// call's, live-B/daemon, scan-B/daemon, objects/daemon and stack-B/daemon
// (the daemons' goroutine stacks) what it leaves live.
func BenchmarkLaunchWide(b *testing.B) {
	const nodes = 1024
	b.ReportAllocs()
	var lm launchMeter
	for i := 0; i < b.N; i++ {
		_, err := bench.Scenario{
			Nodes: nodes, Lean: true,
			Boot: func(cl *cluster.Cluster) error {
				cl.Register("wide_be", func(p *cluster.Proc) {
					be, err := core.BEInit(p)
					if err != nil {
						return
					}
					be.Collective().Broadcast()
					be.Finalize()
				})
				return nil
			},
			FE: func(r *bench.Run) error {
				var sess *core.Session
				if err := lm.measure(r.P.Sim(), func() (err error) {
					sess, err = core.LaunchAndSpawn(r.P, core.Options{
						Job:        rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: 1},
						Daemon:     rm.DaemonSpec{Exe: "wide_be"},
						ICCLFanout: 64,
					})
					return err
				}); err != nil {
					return err
				}
				return sess.Kill()
			},
		}.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	lm.report(b, float64(b.N)*nodes, "daemon", float64(b.N)*nodes)
}
