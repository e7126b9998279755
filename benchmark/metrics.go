package main

import (
	"math"
	"runtime"
	"time"
)

// The metrics this program emits, in the order it prints them. They mirror
// BENCHMARK.json (the smoke test fails when the two drift apart); every
// number names its clock in README.md: "s"/"ms"/"us"/"ns" are host time,
// "vs"/"vms" virtual time, everything else a count or a size.
type decl struct {
	name, unit string
	bound      float64 // end-to-end only: the share by which the metric may worsen (lower is better for all)
}

var endToEndDecls = []decl{
	{"setup_s", "s", 0.25},
	{"wall_s", "s", 0.24},
	{"cpu_s", "s", 0.24},
	{"virt_s", "vs", 0.001},
	{"allocs_per_unit", "count", 0.02},
	{"alloc_B_per_unit", "B", 0.02},
	{"live_MB", "MB", 0.03},
	{"rss_peak_MB", "MB", 0.15},
}

// perLayerDecls: K = kernel pass (kernels.go), T = traced pass. A T metric
// reads 0 on a workload that does not exercise it.
var perLayerDecls = []decl{
	// vtime
	{name: "vtime.timer_ns", unit: "ns"}, {name: "vtime.handle_ns", unit: "ns"}, {name: "vtime.park_ns", unit: "ns"},
	{name: "vtime.spawn_ns", unit: "ns"}, {name: "vtime.spawn_B", unit: "B"},
	{name: "vtime.goroutines_peak_per_daemon", unit: "count"}, {name: "vtime.live_leak_per_session", unit: "count"}, {name: "vtime.teardown_s", unit: "s"},
	// simnet
	{name: "simnet.dial_ns", unit: "ns"}, {name: "simnet.msg_64B_ns", unit: "ns"}, {name: "simnet.msg_64B_allocs", unit: "count"},
	{name: "simnet.msg_64K_ns", unit: "ns"}, {name: "simnet.msg_64K_B", unit: "B"},
	{name: "simnet.msgs_per_unit", unit: "count"}, {name: "simnet.bytes_per_unit", unit: "B"}, {name: "simnet.dials_per_unit", unit: "count"},
	// cluster
	{name: "cluster.new_us_per_node", unit: "us"}, {name: "cluster.spawn_ns", unit: "ns"}, {name: "cluster.spawn_B", unit: "B"},
	// slurm
	{name: "slurm.install_us_per_node", unit: "us"},
	{name: "slurm.job_wide_us_per_node", unit: "us"}, {name: "slurm.job_wide_vs", unit: "vs"},
	{name: "slurm.spawn_wide_us_per_node", unit: "us"}, {name: "slurm.spawn_wide_vs", unit: "vs"},
	{name: "slurm.job_fat_us_per_task", unit: "us"}, {name: "slurm.job_fat_vs", unit: "vs"},
	// engine
	{name: "engine.tracing_vs", unit: "vs"}, {name: "engine.fetch_vs", unit: "vs"}, {name: "engine.e1_e4_vs", unit: "vs"}, {name: "engine.start_vms_per_session", unit: "vms"},
	// lmonp
	{name: "lmonp.write_64B_ns", unit: "ns"}, {name: "lmonp.read_64B_ns", unit: "ns"}, {name: "lmonp.write_64K_ns", unit: "ns"},
	{name: "lmonp.read_64K_ns", unit: "ns"}, {name: "lmonp.read_64K_B", unit: "B"}, {name: "lmonp.sum64_ns_per_KiB", unit: "ns"},
	// proctab
	{name: "proctab.encode_ns_per_entry", unit: "ns"}, {name: "proctab.decode_ns_per_entry", unit: "ns"},
	{name: "proctab.chunkwrite_ns_per_entry", unit: "ns"}, {name: "proctab.assemble_ns_per_entry", unit: "ns"},
	{name: "proctab.slice_ns_per_entry", unit: "ns"}, {name: "proctab.index_ns_per_entry", unit: "ns"},
	{name: "proctab.index_B_per_entry", unit: "B"}, {name: "proctab.table_B_per_entry", unit: "B"},
	// coll
	{name: "coll.rawframes_ns_per_KiB", unit: "ns"}, {name: "coll.frame_codec_ns", unit: "ns"}, {name: "coll.seqcheck_ns", unit: "ns"},
	{name: "coll.pack_ns_per_entry", unit: "ns"}, {name: "coll.rankassemble_ns_per_entry", unit: "ns"}, {name: "coll.filter_sum_ns", unit: "ns"},
	// iccl
	{name: "iccl.bootstrap_us_per_rank", unit: "us"}, {name: "iccl.bootstrap_vms", unit: "vms"},
	{name: "iccl.comm_gather_us_per_rank", unit: "us"}, {name: "iccl.comm_gather_vms", unit: "vms"},
	{name: "iccl.plane_allreduce_us_per_rank", unit: "us"}, {name: "iccl.plane_allreduce_vms", unit: "vms"},
	{name: "iccl.plane_allgather_us_per_rank", unit: "us"}, {name: "iccl.plane_allgather_vms", unit: "vms"},
	{name: "iccl.setup_vs", unit: "vs"},
	// transport
	{name: "transport.hello_ns", unit: "ns"}, {name: "transport.mux_route_us", unit: "us"},
	// health
	{name: "health.idle_us_per_beat", unit: "us"}, {name: "health.msgs_per_daemon_vs", unit: "1/vs"},
	// obs
	{name: "obs.merge_ns", unit: "ns"}, {name: "obs.counter_add_ns", unit: "ns"},
	{name: "obs.trace_overhead_pct", unit: "%"}, {name: "obs.virt_drift_pct", unit: "%"},
	// hostlist
	{name: "hostlist.compress_ns_per_host", unit: "ns"}, {name: "hostlist.expand_ns_per_host", unit: "ns"},
	// core
	{name: "core.launch.wall_s", unit: "s"}, {name: "core.launch.vs", unit: "vs"},
	{name: "core.t_job_vs", unit: "vs"}, {name: "core.t_daemon_vs", unit: "vs"}, {name: "core.t_setup_vs", unit: "vs"},
	{name: "core.t_collective_vs", unit: "vs"}, {name: "core.other_vs", unit: "vs"}, {name: "core.lmon_share_pct", unit: "%"},
	{name: "core.seed_first_fwd_vs", unit: "vs"}, {name: "core.seed_valid_vs", unit: "vs"}, {name: "core.e6_e10_vs", unit: "vs"},
	{name: "core.mem_fe_B", unit: "B"}, {name: "core.mem_master_B", unit: "B"}, {name: "core.mem_interior_B", unit: "B"}, {name: "core.mem_leaf_B", unit: "B"},
	{name: "core.bcast.us_per_daemon", unit: "us"}, {name: "core.bcast.vms", unit: "vms"},
	{name: "core.gather.us_per_daemon", unit: "us"}, {name: "core.gather.vms", unit: "vms"},
	{name: "core.bcast_tag.us_per_daemon", unit: "us"}, {name: "core.bcast_tag.vms", unit: "vms"},
	{name: "core.reduce_tag.us_per_daemon", unit: "us"}, {name: "core.reduce_tag.vms", unit: "vms"},
	{name: "core.launchmw.ms", unit: "ms"}, {name: "core.launchmw.vms", unit: "vms"},
	{name: "core.kill.ms", unit: "ms"}, {name: "core.detach.ms", unit: "ms"},
	{name: "core.session.ready_p50_vms", unit: "vms"}, {name: "core.session.ready_p99_vms", unit: "vms"},
	{name: "core.session_leak_B", unit: "B"},
	// runtime
	{name: "runtime.num_gc", unit: "count"}, {name: "runtime.gc_pause_ms", unit: "ms"}, {name: "runtime.gc_cpu_pct", unit: "%"},
	{name: "runtime.stack_MB", unit: "MB"}, {name: "runtime.heap_sys_MB", unit: "MB"},
}

// spanLayers derives the per-layer metrics that come from the traced rep's
// spans and from comparing it with the untraced obs-off reference rep.
func (b *bench) spanLayers() {
	L := b.layer
	type agg struct {
		n          int
		host, virt time.Duration
	}
	by := make(map[string]*agg)
	for _, s := range b.tr.spans {
		if s.Group < 0 { // the traced session's discarded warm-up block
			continue
		}
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.host += s.dur()
		a.virt += s.vdur()
	}
	mean := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return d.Seconds() / float64(n)
	}
	get := func(names ...string) agg {
		var sum agg
		for _, name := range names {
			if a := by[name]; a != nil {
				sum.n, sum.host, sum.virt = sum.n+a.n, sum.host+a.host, sum.virt+a.virt
			}
		}
		return sum
	}

	launch := get("core.LaunchAndSpawn", "core.AttachAndSpawn")
	L["core.launch.wall_s"] = mean(launch.host, launch.n)
	L["core.launch.vs"] = mean(launch.virt, launch.n)

	// Daemons a collective call reaches, averaged over the sessions.
	daemons := map[string]float64{
		"launch_wide": float64(b.sc.wideK), "launch_fat": float64(b.sc.fatK), "sample_loop": float64(b.sc.loopK),
		"session_churn": float64(b.in.churnNodes())/float64(b.sc.workers*b.sc.perWorker) - churnMWNodes,
	}[b.cfg.workload]
	for metric, name := range map[string]string{
		"core.bcast": "core.Broadcast", "core.gather": "core.Gather",
		"core.bcast_tag": "core.BroadcastTag", "core.reduce_tag": "core.ReduceTag",
	} {
		a := get(name)
		L[metric+".us_per_daemon"] = mean(a.host, a.n) * 1e6 / daemons
		L[metric+".vms"] = mean(a.virt, a.n) * 1e3
	}
	mw := get("core.LaunchMW")
	L["core.launchmw.ms"], L["core.launchmw.vms"] = mean(mw.host, mw.n)*1e3, mean(mw.virt, mw.n)*1e3
	kill, detach := get("core.Kill"), get("core.Detach")
	L["core.kill.ms"], L["core.detach.ms"] = mean(kill.host, kill.n)*1e3, mean(detach.host, detach.n)*1e3

	ref, tr := b.ref, b.traced
	if ref.units > 0 {
		// Traffic counts come from the obs-off reference rep: they are the
		// ones the end-to-end virt_s corresponds to, and they repeat exactly.
		L["simnet.msgs_per_unit"] = float64(ref.net.Messages) / float64(ref.units)
		L["simnet.bytes_per_unit"] = float64(ref.net.Bytes) / float64(ref.units)
		L["simnet.dials_per_unit"] = float64(ref.net.Dials) / float64(ref.units)
		L["obs.trace_overhead_pct"] = 100 * (tr.speed()*tr.wall.Seconds()/(ref.speed()*ref.wall.Seconds()) - 1)
		L["obs.virt_drift_pct"] = 100 * math.Abs((tr.virt - ref.virt).Seconds()) / ref.virt.Seconds()
	}
	L["runtime.num_gc"] = float64(ref.numGC)
	L["runtime.gc_pause_ms"] = ref.pause.Seconds() * 1e3
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	L["runtime.gc_cpu_pct"] = 100 * ms.GCCPUFraction
}
