package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/hostlist"
	"launchmon/internal/iccl"
	"launchmon/internal/lmonp"
	"launchmon/internal/obs"
	"launchmon/internal/proctab"
	"launchmon/internal/rm"
	"launchmon/internal/rm/slurm"
	"launchmon/internal/simnet"
	"launchmon/internal/transport"
	"launchmon/internal/vtime"
)

// The kernel pass: fixed-count loops that drive each layer's public
// functions in isolation, so a per-layer number moves only when that layer
// does. Micro loops report the median of kernelLoops runs (the ISSUE asked
// for five; three keep the pass inside the driver's time cap); the RM and
// ICCL kernels build a whole rig and run once. Host numbers here are
// informational (no bound); virtual ones repeat exactly.

const kernelLoops = 3

// cost is one kernel's per-operation host cost.
type cost struct{ ns, allocs, bytes float64 }

// kernel times fn, which performs n operations, kernelLoops times and
// returns the per-operation medians.
func kernel(n int, fn func()) cost {
	var ns, allocs, bytesPer []float64
	for i := 0; i < kernelLoops; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
		bytesPer = append(bytesPer, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
	}
	return cost{median(ns), median(allocs), median(bytesPer)}
}

// kernelNames lists the per-layer metrics the kernel pass fills in (the
// rest of perLayerDecls comes from the traced pass).
func kernelNames() []string {
	var names []string
	for _, k := range kernels {
		names = append(names, k.emits...)
	}
	return names
}

// kernelSizes scale with -quick like the workloads do.
type kernelSizes struct {
	div      int
	wideK    int // RM and cluster kernels, launch_wide's shape
	fatK     int // × fatTasks, launch_fat's shape
	fatTasks int
	icclK    int
	entries  int // proctab kernels
	hosts    int // hostlist kernels
}

func newKernelSizes(quick bool) kernelSizes {
	z := kernelSizes{div: 1, wideK: 16384, fatK: 2048, fatTasks: 256, icclK: 4096, entries: 524288, hosts: 65536}
	if quick {
		z = kernelSizes{div: 32, wideK: z.wideK / 32, fatK: z.fatK / 32, fatTasks: z.fatTasks, icclK: z.icclK / 32, entries: z.entries / 32, hosts: z.hosts / 32}
	}
	return z
}

var kernels = []struct {
	emits []string
	run   func(L map[string]float64, z kernelSizes)
}{
	{[]string{"vtime.timer_ns", "vtime.handle_ns", "vtime.park_ns", "vtime.spawn_ns", "vtime.spawn_B"}, vtimeKernels},
	{[]string{"simnet.dial_ns", "simnet.msg_64B_ns", "simnet.msg_64B_allocs", "simnet.msg_64K_ns", "simnet.msg_64K_B"}, simnetKernels},
	{[]string{"cluster.new_us_per_node", "cluster.spawn_ns", "cluster.spawn_B", "slurm.install_us_per_node",
		"slurm.job_wide_us_per_node", "slurm.job_wide_vs", "slurm.spawn_wide_us_per_node", "slurm.spawn_wide_vs",
		"slurm.job_fat_us_per_task", "slurm.job_fat_vs"}, rmKernels},
	{[]string{"lmonp.write_64B_ns", "lmonp.read_64B_ns", "lmonp.write_64K_ns", "lmonp.read_64K_ns", "lmonp.read_64K_B", "lmonp.sum64_ns_per_KiB"}, lmonpKernels},
	{[]string{"proctab.encode_ns_per_entry", "proctab.decode_ns_per_entry", "proctab.chunkwrite_ns_per_entry",
		"proctab.assemble_ns_per_entry", "proctab.slice_ns_per_entry", "proctab.index_ns_per_entry",
		"proctab.index_B_per_entry", "proctab.table_B_per_entry"}, proctabKernels},
	{[]string{"coll.rawframes_ns_per_KiB", "coll.frame_codec_ns", "coll.seqcheck_ns", "coll.pack_ns_per_entry",
		"coll.rankassemble_ns_per_entry", "coll.filter_sum_ns"}, collKernels},
	{[]string{"iccl.bootstrap_us_per_rank", "iccl.bootstrap_vms", "iccl.comm_gather_us_per_rank", "iccl.comm_gather_vms",
		"iccl.plane_allreduce_us_per_rank", "iccl.plane_allreduce_vms", "iccl.plane_allgather_us_per_rank", "iccl.plane_allgather_vms"}, icclKernels},
	{[]string{"transport.hello_ns", "transport.mux_route_us"}, transportKernels},
	{[]string{"obs.merge_ns", "obs.counter_add_ns"}, obsKernels},
	{[]string{"hostlist.compress_ns_per_host", "hostlist.expand_ns_per_host"}, hostlistKernels},
}

func runKernels(L map[string]float64, quick bool) {
	z := newKernelSizes(quick)
	for _, k := range kernels {
		k.run(L, z)
		runtime.GC()
	}
}

// must aborts the kernel pass on a set-up error: a kernel that cannot build
// its rig has no number to report.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark kernel: %v", err))
	}
}

func vtimeKernels(L map[string]float64, z kernelSizes) {
	n := 1 << 18 / z.div
	L["vtime.timer_ns"] = kernel(n, func() {
		sim := vtime.New()
		for i := 0; i < n; i++ {
			sim.After(time.Duration(i%1024)*time.Microsecond, func() {})
		}
		sim.Run()
	}).ns

	n = 1 << 16 / z.div
	L["vtime.handle_ns"] = kernel(n, func() {
		sim := vtime.New()
		ch := vtime.NewChan[int](sim)
		ch.Handle(func(v int, ok bool) {
			if ok && v < n {
				ch.Send(v + 1)
			}
		})
		ch.Send(1)
		sim.Run()
	}).ns

	// Two goroutines ping-pong: every Send wakes a receiver parked in Recv.
	L["vtime.park_ns"] = kernel(2*n, func() {
		sim := vtime.New()
		ping, pong := vtime.NewChan[int](sim), vtime.NewChan[int](sim)
		sim.Go("pong", func() {
			for {
				v, ok := ping.Recv()
				if !ok {
					return
				}
				pong.Send(v)
			}
		})
		sim.Go("ping", func() {
			for i := 0; i < n; i++ {
				ping.Send(i)
				pong.Recv()
			}
			ping.Close()
		})
		sim.Run()
	}).ns

	// spawn: n goroutines that park once. spawn_B is what each retains
	// while parked (heap + stack after a forced GC) — the per-daemon floor
	// under live_MB and rss_peak_MB.
	n = 32768 / z.div
	var ns, retained []float64
	for i := 0; i < kernelLoops; i++ {
		sim := vtime.New()
		gate := vtime.NewChan[struct{}](sim)
		sim.Go("spawner", func() {
			base := liveBytes()
			t0 := time.Now()
			for j := 0; j < n; j++ {
				sim.Go("parked", func() { gate.Recv() })
			}
			sim.Sleep(time.Nanosecond) // runs again once every spawned goroutine has parked
			ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(n))
			retained = append(retained, float64(liveBytes()-base)/float64(n))
			gate.Close()
		})
		sim.Run()
	}
	L["vtime.spawn_ns"], L["vtime.spawn_B"] = median(ns), median(retained)
}

func simnetKernels(L map[string]float64, z kernelSizes) {
	// listen opens host b's listener, handing every accepted conn to
	// onConn, and returns the dialing host and the address to dial.
	listen := func(sim *vtime.Sim, onConn func(*simnet.Conn)) (*simnet.Host, simnet.Addr) {
		net := simnet.New(sim, simnet.Options{})
		l, err := net.Host("b").Listen(7000)
		must(err)
		l.Handle(func(c *simnet.Conn, err error) {
			if err == nil {
				onConn(c)
			}
		})
		return net.Host("a"), l.Addr()
	}

	n := 1 << 14 / z.div
	L["simnet.dial_ns"] = kernel(n, func() {
		sim := vtime.New()
		a, addr := listen(sim, func(c *simnet.Conn) { c.Close() })
		sim.Go("dialer", func() {
			for i := 0; i < n; i++ {
				c, err := a.Dial(addr)
				must(err)
				c.Close()
			}
		})
		sim.Run()
	}).ns

	msg := func(size, n int) cost {
		buf := make([]byte, size)
		return kernel(n, func() {
			sim := vtime.New()
			got := 0
			a, addr := listen(sim, func(c *simnet.Conn) {
				c.Handle(func(m []byte, err error) {
					if err == nil {
						got += len(m)
					}
				})
			})
			sim.Go("sender", func() {
				c, err := a.Dial(addr)
				must(err)
				for i := 0; i < n; i++ {
					_, err := c.Write(buf)
					must(err)
				}
				c.Close()
			})
			sim.Run()
			if got != n*size {
				panic(fmt.Sprintf("benchmark kernel: simnet delivered %d of %d bytes", got, n*size))
			}
		})
	}
	small := msg(64, 1<<17/z.div)
	L["simnet.msg_64B_ns"], L["simnet.msg_64B_allocs"] = small.ns, small.allocs
	big := msg(64<<10, 1<<11/z.div)
	L["simnet.msg_64K_ns"], L["simnet.msg_64K_B"] = big.ns, big.bytes // bytes allocated per message = copies made
}

// rmKernels measure the RM alone (no LaunchMON) on the two launch shapes:
// the floor under wall_s and virt_s of launch_wide and launch_fat. virt_s
// minus the floor is LaunchMON's own virtual cost. Each rig runs once.
func rmKernels(L map[string]float64, z kernelSizes) {
	// rmRig boots cluster + RM and returns the host cost of each.
	type rmRig struct {
		sim        *vtime.Sim
		cl         *cluster.Cluster
		mgr        *slurm.Manager
		newS, insS float64
	}
	boot := func(nodes int) rmRig {
		sim := vtime.New()
		t0 := time.Now()
		cl, err := cluster.New(sim, cluster.Options{Nodes: nodes})
		must(err)
		t1 := time.Now()
		mgr, err := slurm.Install(cl, slurm.Config{})
		must(err)
		cl.Register("rm_noop_daemon", func(*cluster.Proc) {})
		return rmRig{sim, cl, mgr, t1.Sub(t0).Seconds(), time.Since(t1).Seconds()}
	}
	// job starts a job under a tracer, the way the engine does, and returns
	// host seconds and virtual seconds from the start to MPIR_Breakpoint;
	// with spawn set it then has the RM spawn one daemon per node.
	job := func(r rmRig, spec rm.JobSpec, spawn bool) (jobS, jobVs, spawnS, spawnVs float64) {
		r.sim.Go("rm-kernel", func() {
			h0, v0 := time.Now(), r.sim.Now()
			j, err := r.mgr.StartJobHeld(spec)
			must(err)
			tr, err := j.LauncherProc().Attach()
			must(err)
			j.Start()
			for {
				ev, ok := tr.Events().Recv()
				if !ok || ev.Type != cluster.EventStop {
					panic("benchmark kernel: launcher exited before MPIR_Breakpoint")
				}
				if ev.Reason == rm.BPName {
					break
				}
				must(tr.Continue())
			}
			jobS, jobVs = time.Since(h0).Seconds(), (r.sim.Now() - v0).Seconds()
			tr.Detach()
			if spawn {
				h0, v0 = time.Now(), r.sim.Now()
				must(j.SpawnDaemons(rm.DaemonSpec{Exe: "rm_noop_daemon"}))
				spawnS, spawnVs = time.Since(h0).Seconds(), (r.sim.Now() - v0).Seconds()
			}
		})
		r.sim.Run()
		return
	}

	wide := boot(z.wideK)
	L["cluster.new_us_per_node"] = wide.newS * 1e6 / float64(z.wideK)
	L["slurm.install_us_per_node"] = wide.insS * 1e6 / float64(z.wideK)
	jobS, jobVs, spawnS, spawnVs := job(wide, rm.JobSpec{Exe: "app", Nodes: z.wideK, TasksPerNode: 1}, true)
	L["slurm.job_wide_us_per_node"], L["slurm.job_wide_vs"] = jobS*1e6/float64(z.wideK), jobVs
	L["slurm.spawn_wide_us_per_node"], L["slurm.spawn_wide_vs"] = spawnS*1e6/float64(z.wideK), spawnVs

	fat := boot(z.fatK)
	jobS, jobVs, _, _ = job(fat, rm.JobSpec{Exe: "app", Nodes: z.fatK, TasksPerNode: z.fatTasks}, false)
	L["slurm.job_fat_us_per_task"], L["slurm.job_fat_vs"] = jobS*1e6/float64(z.fatK*z.fatTasks), jobVs

	// cluster.SpawnProc of a main that parks, one per node.
	n := z.wideK
	var ns, retained []float64
	for i := 0; i < kernelLoops; i++ {
		sim := vtime.New()
		cl, err := cluster.New(sim, cluster.Options{Nodes: n})
		must(err)
		gate := vtime.NewChan[struct{}](sim)
		sim.Go("spawner", func() {
			base := liveBytes()
			t0 := time.Now()
			for j := 0; j < n; j++ {
				_, err := cl.Node(j).SpawnProc(cluster.Spec{Exe: "parked", Main: func(*cluster.Proc) { gate.Recv() }})
				must(err)
			}
			sim.Sleep(time.Nanosecond)
			ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(n))
			retained = append(retained, float64(liveBytes()-base)/float64(n))
			gate.Close()
		})
		sim.Run()
	}
	L["cluster.spawn_ns"], L["cluster.spawn_B"] = median(ns), median(retained)
}

func lmonpKernels(L map[string]float64, z kernelSizes) {
	codec := func(size, n int) (write, read cost) {
		m := &lmonp.Msg{Class: lmonp.ClassFEBE, Type: lmonp.TypeUsrData, Payload: make([]byte, 16), UsrData: make([]byte, size)}
		write = kernel(n, func() {
			for i := 0; i < n; i++ {
				must(lmonp.Write(io.Discard, m))
			}
		})
		enc, err := m.Encode()
		must(err)
		stream := bytes.Repeat(enc, n)
		read = kernel(n, func() {
			rd := bytes.NewReader(stream)
			for i := 0; i < n; i++ {
				_, err := lmonp.Read(rd)
				must(err)
			}
		})
		return
	}
	w, r := codec(64, 1<<17/z.div)
	L["lmonp.write_64B_ns"], L["lmonp.read_64B_ns"] = w.ns, r.ns
	w, r = codec(64<<10, 1<<9/z.div)
	L["lmonp.write_64K_ns"], L["lmonp.read_64K_ns"], L["lmonp.read_64K_B"] = w.ns, r.ns, r.bytes

	buf, n := make([]byte, 64<<10), 1<<9/z.div
	var sink uint64
	L["lmonp.sum64_ns_per_KiB"] = kernel(n*64, func() {
		for i := 0; i < n; i++ {
			sink += lmonp.Sum64(buf)
		}
	}).ns
	_ = sink
}

// fatTable builds a launch_fat-shaped RPDTAB: tasksPerNode consecutive
// ranks per host, rank order.
func fatTable(entries, tasksPerNode int) proctab.Table {
	t := make(proctab.Table, entries)
	for i := range t {
		t[i] = proctab.ProcDesc{Host: fmt.Sprintf("node%d", i/tasksPerNode), Exe: "app", Pid: 1000 + i%tasksPerNode, Rank: i}
	}
	return t
}

func proctabKernels(L map[string]float64, z kernelSizes) {
	n := z.entries
	tab := fatTable(n, z.fatTasks)
	var enc []byte
	L["proctab.encode_ns_per_entry"] = kernel(n, func() { enc = tab.Encode() }).ns
	L["proctab.decode_ns_per_entry"] = kernel(n, func() {
		_, err := proctab.Decode(enc)
		must(err)
	}).ns

	var chunks [][]byte
	L["proctab.chunkwrite_ns_per_entry"] = kernel(n, func() {
		chunks = chunks[:0]
		w := proctab.NewChunkWriter(0, func(chunk []byte, _ uint64) error {
			chunks = append(chunks, chunk)
			return nil
		})
		must(w.AddTable(tab))
		must(w.Flush())
	}).ns
	L["proctab.assemble_ns_per_entry"] = kernel(n, func() {
		var a proctab.Assembler
		for _, c := range chunks {
			must(a.Add(c))
		}
		_, err := a.Finish(n)
		must(err)
	}).ns

	// What every daemon does with its routed rank slice: one node's tasks.
	var slices [][]byte
	for lo := 0; lo < n; lo += z.fatTasks {
		slices = append(slices, tab[lo:lo+z.fatTasks].Encode())
	}
	L["proctab.slice_ns_per_entry"] = kernel(n, func() {
		for _, s := range slices {
			var a proctab.Assembler
			must(a.Add(s))
			_, err := a.FinishSlice(z.fatTasks)
			must(err)
		}
	}).ns

	var idx *proctab.Index
	L["proctab.index_ns_per_entry"] = kernel(n, func() {
		var err error
		idx, err = proctab.BuildIndex(tab)
		must(err)
	}).ns
	L["proctab.index_B_per_entry"] = float64(idx.MemBytes()) / float64(n)
	L["proctab.table_B_per_entry"] = float64(tab.MemBytes()) / float64(n)
}

func collKernels(L map[string]float64, z kernelSizes) {
	const chunk = 4 << 10 // sample_loop's CollChunkBytes
	payload := make([]byte, loopPayloadBytes)
	n := 1 << 11 / z.div
	var frames []coll.Frame
	L["coll.rawframes_ns_per_KiB"] = kernel(n*loopPayloadBytes>>10, func() {
		for i := 0; i < n; i++ {
			frames = coll.RawFrames(coll.OpBroadcast, coll.MinUserTag, "", payload, chunk)
		}
	}).ns

	n = 1 << 17 / z.div
	L["coll.frame_codec_ns"] = kernel(n, func() {
		for i := 0; i < n; i++ {
			p, u := frames[0].EncodeMsg()
			_, err := coll.DecodeMsg(false, p, u)
			must(err)
		}
	}).ns

	n = 1 << 9 / z.div
	L["coll.seqcheck_ns"] = kernel(n*len(frames), func() {
		for i := 0; i < n; i++ {
			var c coll.SeqCheck
			for _, f := range frames {
				must(c.AdmitFrame(f))
			}
		}
	}).ns

	// A gather's worth of rank-tagged entries, sample_loop sized.
	entries := make([]coll.Entry, 4096/z.div)
	for i := range entries {
		entries[i] = coll.Entry{Rank: i, Blob: make([]byte, loopContribMin+i*loopContribSpan/len(entries))}
	}
	n = 16
	var packed []coll.Frame
	L["coll.pack_ns_per_entry"] = kernel(n*len(entries), func() {
		for i := 0; i < n; i++ {
			packed = packed[:0]
			p := coll.Packer{Op: coll.OpGather, Tag: 1, ChunkBytes: chunk, Emit: func(f coll.Frame) error {
				if !f.End {
					if _, err := coll.DecodeEntries(f.Body); err != nil {
						return err
					}
				}
				packed = append(packed, f)
				return nil
			}}
			for _, e := range entries {
				must(p.Add(e))
			}
			must(p.End())
		}
	}).ns
	L["coll.rankassemble_ns_per_entry"] = kernel(n*len(entries), func() {
		for i := 0; i < n; i++ {
			var a coll.RankAssembler
			for _, f := range packed[:len(packed)-1] {
				must(a.Add(f.H, f.Body))
			}
			end := packed[len(packed)-1]
			_, err := a.Finish(end.H, end.Total, len(entries))
			must(err)
		}
	}).ns

	sum, err := coll.LookupFilter("sum")
	must(err)
	next := u64s(make([]uint64, loopCounters)...)
	n = 1 << 20 / z.div
	L["coll.filter_sum_ns"] = kernel(n, func() {
		var acc []byte
		for i := 0; i < n; i++ {
			acc, err = sum(acc, next)
			must(err)
		}
	}).ns
}

// icclKernels bootstrap a bare ICCL tree (no core) of sample_loop's shape
// and time the collectives at the root, separated by barriers. AllGather
// moves K² entries, so it runs on a tree an eighth the size.
func icclKernels(L map[string]float64, z kernelSizes) {
	type step struct {
		name string
		run  func(c *iccl.Comm, pl *iccl.Plane, mine []byte) error
	}
	tree := func(n int, bootstrap string, steps ...step) {
		sim := vtime.New()
		cl, err := cluster.New(sim, cluster.Options{Nodes: n})
		must(err)
		nodelist := make([]string, n)
		for i := range nodelist {
			nodelist[i] = cl.Node(i).Name()
		}
		// phase records the root's host µs per rank and virtual ms of one step.
		phase := func(name string, h0 time.Time, v0 time.Duration) {
			if name != "" {
				L["iccl."+name+"_us_per_rank"] = time.Since(h0).Seconds() * 1e6 / float64(n)
				L["iccl."+name+"_vms"] = (sim.Now() - v0).Seconds() * 1e3
			}
		}
		h0 := time.Now()
		main := func(i int) cluster.ProcMain {
			return func(p *cluster.Proc) {
				c, err := iccl.Bootstrap(p, iccl.Config{Rank: i, Size: n, Fanout: 16, Nodelist: nodelist, Port: 50001})
				must(err)
				defer c.Close()
				if c.IsMaster() {
					phase(bootstrap, h0, 0)
				}
				pl := c.NewPlane(4<<10, 4, nil, nil)
				for _, s := range steps {
					must(c.Barrier())
					h, v := time.Now(), sim.Now()
					must(s.run(c, pl, u64s(uint64(i), 1)))
					if c.IsMaster() {
						phase(s.name, h, v)
					}
				}
				must(c.Barrier())
			}
		}
		// One rank per virtual microsecond, parents first: ranks started at
		// the same instant would race on the host for whether a parent
		// listens before its child dials, and the retries would make the
		// virtual times differ from run to run.
		for i := 0; i < n; i++ {
			i := i
			sim.After(time.Duration(i)*time.Microsecond, func() {
				_, err := cl.Node(i).SpawnSystemProc(cluster.Spec{Exe: "iccl_kernel", Main: main(i)})
				must(err)
			})
		}
		sim.Run()
	}
	tree(z.icclK, "bootstrap",
		// The legacy Comm path the ready gather takes.
		step{"comm_gather", func(c *iccl.Comm, _ *iccl.Plane, mine []byte) error { _, err := c.Gather(mine); return err }},
		step{"plane_allreduce", func(_ *iccl.Comm, pl *iccl.Plane, mine []byte) error {
			_, err := pl.AllReduce(mine, "sum")
			return err
		}})
	tree(z.icclK/8, "",
		step{"plane_allgather", func(_ *iccl.Comm, pl *iccl.Plane, mine []byte) error { _, err := pl.AllGather(mine); return err }})
}

func transportKernels(L map[string]float64, z kernelSizes) {
	n := 1 << 19 / z.div
	var buf bytes.Buffer
	L["transport.hello_ns"] = kernel(n, func() {
		for i := 0; i < n; i++ {
			buf.Reset()
			must(transport.WriteHello(&buf, transport.Hello{Session: i, Role: transport.RoleBE}))
			_, err := transport.ReadHello(&buf)
			must(err)
		}
	}).ns

	// A dial routed through ListenMux to one of 64 registered sessions.
	n = 1 << 13 / z.div
	L["transport.mux_route_us"] = kernel(n, func() {
		sim := vtime.New()
		net := simnet.New(sim, simnet.Options{})
		mux, err := transport.ListenMux(sim, net.Host("fe"))
		must(err)
		eps := make([]*transport.Endpoint, 64)
		for s := range eps {
			eps[s], err = mux.Open(s)
			must(err)
		}
		sim.Go("dialer", func() {
			for i := 0; i < n; i++ {
				s := i % len(eps)
				c, err := transport.Dial(net.Host("be"), mux.Addr(), s, transport.RoleBE)
				must(err)
				got, err := eps[s].Accept(transport.RoleBE, time.Second)
				must(err)
				got.Close()
				c.Close()
			}
			mux.Close()
		})
		sim.Run()
	}).ns / 1e3
}

func obsKernels(L map[string]float64, z kernelSizes) {
	snap := func(seed uint64) []byte {
		reg := obs.NewRegistry()
		for i := 0; i < 32; i++ {
			reg.Counter(fmt.Sprintf("layer.counter.%02d", i)).Add(seed + uint64(i))
			reg.Gauge(fmt.Sprintf("layer.gauge.%02d.max", i)).SetMax(seed * uint64(i))
		}
		return reg.Snapshot().Encode()
	}
	a, b := snap(1), snap(2)
	n := 1 << 11 / z.div
	L["obs.merge_ns"] = kernel(n, func() {
		for i := 0; i < n; i++ {
			_, err := obs.MergeEncoded(a, b)
			must(err)
		}
	}).ns

	c := obs.NewRegistry().Counter("kernel")
	n = 1 << 22 / z.div
	L["obs.counter_add_ns"] = kernel(n, func() {
		for i := 0; i < n; i++ {
			c.Add(1)
		}
	}).ns
}

func hostlistKernels(L map[string]float64, z kernelSizes) {
	n := z.hosts
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("node%d", i)
	}
	var compressed string
	L["hostlist.compress_ns_per_host"] = kernel(n, func() { compressed = hostlist.Compress(nodes) }).ns
	// Expand interns its result process-wide, so each run expands a list it
	// has not seen.
	run := 0
	L["hostlist.expand_ns_per_host"] = kernel(n, func() {
		run++
		got := hostlist.Expand(strings.Replace(compressed, "node", fmt.Sprintf("k%dn", run), 1))
		if len(got) != n {
			panic(fmt.Sprintf("benchmark kernel: hostlist expanded %d of %d hosts", len(got), n))
		}
	}).ns
}
