package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/core"
	"launchmon/internal/engine"
	"launchmon/internal/iccl"
	"launchmon/internal/perfmodel"
	"launchmon/internal/rm"
	"launchmon/internal/vtime"
)

// The four workloads. Each is a closed loop: every FE caller waits for its
// reply before it issues the next call. Their rationale is in README.md
// and in BENCHMARK.json's "why" lines.
var workloads = map[string]func(*bench){
	"launch_wide":   (*bench).launchWide,
	"launch_fat":    (*bench).launchFat,
	"sample_loop":   (*bench).sampleLoop,
	"session_churn": (*bench).sessionChurn,
}

var workloadNames = []string{"launch_wide", "launch_fat", "sample_loop", "session_churn"}

func u64s(v ...uint64) []byte {
	b := make([]byte, 0, 8*len(v))
	for _, x := range v {
		b = binary.BigEndian.AppendUint64(b, x)
	}
	return b
}

func b2u(ok bool) uint64 {
	if ok {
		return 1
	}
	return 0
}

// call wraps one FE API call in a span and counts it as an operation.
func (b *bench) call(name string, parent *span, fn func() error) bool {
	sp := b.tr.begin(name, parent)
	err := fn()
	sp.end()
	return b.op(name, err)
}

// launch is the timed LaunchAndSpawn of the two launch workloads, followed
// by the checks every launch shares and the high-water reading.
func (b *bench) launch(m *meter, r *rig, p *cluster.Proc, fe *span, opts core.Options, units int) *core.Session {
	opts.Obs = b.obs()
	var sess *core.Session
	m.begin(r)
	ok := b.call("core.LaunchAndSpawn", fe, func() (err error) {
		sess, err = core.LaunchAndSpawn(p, opts)
		return err
	})
	m.end(r, units)
	if !ok {
		return nil
	}
	b.checkSession(sess, opts.Job.Nodes, opts.Job.TasksPerNode)
	m.highWater()
	b.launchLayers(sess, opts.ICCLFanout)
	return sess
}

// kill ends a session the tool launched; no fault event may have fired
// before it.
func (b *bench) kill(sess *core.Session, w *faultWatch, parent *span) {
	b.check(w.end() == 0, "session %d: fault status event fired", sess.ID)
	b.call("core.Kill", parent, sess.Kill)
}

// launchWide: K nodes × 1 task, fanout 64 — the -million shape at 1/64
// scale. Timed section: the LaunchAndSpawn call.
func (b *bench) launchWide() {
	k := b.sc.wideK
	for n := 0; b.more(n); n++ {
		m := b.startRep(n)
		r, err := m.boot(k)
		if !b.op("boot", err) {
			return
		}
		r.cl.Register("wide_be", func(p *cluster.Proc) {
			be, err := core.BEInit(p)
			if err != nil {
				return
			}
			be.Collective().Broadcast()
			be.Finalize()
		})
		m.runFE(r, func(p *cluster.Proc, fe *span) {
			sess := b.launch(m, r, p, fe, core.Options{
				Job:        rm.JobSpec{Exe: "app", Nodes: k, TasksPerNode: 1},
				Daemon:     rm.DaemonSpec{Exe: "wide_be", Args: b.in.daemonArgs},
				ICCLFanout: 64,
				FEData:     b.in.wideFEData,
			}, k)
			if sess == nil {
				return
			}
			// The daemons stay parked: releasing them through a broadcast
			// and a reduce costs more host time than the launch being
			// measured (sample_loop checks those paths), so the rep ends by
			// killing the session.
			b.kill(sess, watchFaults(sess), fe)
		})
		m.file(n)
	}
}

// launchFat: few daemons, big table (K × 256 tasks), 64 KiB FEData, fanout
// 32. Timed section: the LaunchAndSpawn call; the slice-union check runs
// after it, untimed.
func (b *bench) launchFat() {
	k, tasks := b.sc.fatK, b.sc.fatTasks
	want := digest(b.in.fatFEData)
	for n := 0; b.more(n); n++ {
		m := b.startRep(n)
		r, err := m.boot(k)
		if !b.op("boot", err) {
			return
		}
		r.cl.Register("fat_be", func(p *cluster.Proc) {
			be, err := core.BEInit(p)
			if err != nil {
				return
			}
			mine := append([]byte{byte(b2u(digest(be.FEData()) == want))}, be.MyProctab().Encode()...)
			be.Collective().Gather(mine)
			be.Finalize()
		})
		m.runFE(r, func(p *cluster.Proc, fe *span) {
			sess := b.launch(m, r, p, fe, core.Options{
				Job:        rm.JobSpec{Exe: "app", Nodes: k, TasksPerNode: tasks},
				Daemon:     rm.DaemonSpec{Exe: "fat_be", Args: b.in.daemonArgs},
				ICCLFanout: 32,
				FEData:     b.in.fatFEData,
			}, k*tasks)
			if sess == nil {
				return
			}
			w := watchFaults(sess)
			var got [][]byte
			if b.call("core.Gather", fe, func() (err error) { got, err = sess.Gather(); return err }) {
				okData := len(got) == k
				for i := range got {
					okData = okData && len(got[i]) > 0 && got[i][0] == 1
					if len(got[i]) > 0 {
						got[i] = got[i][1:]
					}
				}
				b.check(okData, "gather: %d contributions (want %d), or a daemon saw other FEData than the generator's", len(got), k)
				b.checkSliceUnion(sess, got)
			}
			b.kill(sess, w, fe)
		})
		m.file(n)
	}
}

// launchLayers derives the per-layer metrics a launch exposes from the
// session's own Timeline and daemon records (traced rep only; all virtual
// or counted, so they repeat exactly).
func (b *bench) launchLayers(sess *core.Session, fanout int) {
	if b.tr == nil {
		return
	}
	tl, L := sess.Timeline, b.layer
	if d, err := perfmodel.Decompose(tl); err == nil {
		L["core.t_job_vs"] = d.Job.Seconds()
		L["core.t_daemon_vs"] = d.DaemonSpawn.Seconds()
		L["core.t_setup_vs"] = d.Setup.Seconds()
		L["core.t_collective_vs"] = d.Collective.Seconds()
		L["core.other_vs"] = d.Other.Seconds()
		L["core.lmon_share_pct"] = 100 * d.LaunchMONShare()
		L["engine.tracing_vs"] = d.Tracing.Seconds()
		L["engine.fetch_vs"] = d.Fetch.Seconds()
	}
	L["engine.e1_e4_vs"] = tl.Between(engine.MarkE1, engine.MarkE4).Seconds()
	L["engine.start_vms_per_session"] = tl.Between(engine.MarkE0, engine.MarkE1).Seconds() * 1e3
	L["iccl.setup_vs"] = tl.Between(engine.MarkE8, engine.MarkE9).Seconds()
	L["core.seed_first_fwd_vs"] = tl.Between(engine.MarkE0, engine.MarkSeedFwd).Seconds()
	L["core.seed_valid_vs"] = tl.Between(engine.MarkE0, engine.MarkSeedValid).Seconds()
	L["core.e6_e10_vs"] = tl.Between(engine.MarkE6, engine.MarkE10).Seconds()

	L["core.mem_fe_B"] = float64(sess.Proctab().MemBytes())
	infos := sess.Daemons()
	var master, interior, leaf int
	for _, d := range infos {
		switch {
		case d.Rank == 0:
			master = max(master, d.PeakBytes)
		case len(iccl.Children(d.Rank, len(infos), fanout)) > 0:
			interior = max(interior, d.PeakBytes)
		default:
			leaf = max(leaf, d.PeakBytes)
		}
	}
	L["core.mem_master_B"], L["core.mem_interior_B"], L["core.mem_leaf_B"] = float64(master), float64(interior), float64(leaf)
}

// sampleLoop: steady-state tool traffic on one K × 1 session with the
// launch path idle. Two tool components share the session for the timed
// section: A (lockstep, up-heavy) and B (tagged streams, down-heavy).
func (b *bench) sampleLoop() {
	if !b.cfg.trace {
		b.loopSession(0, 1<<30, false)
		return
	}
	// A session's observability mode is fixed at launch, so the reference
	// and the traced block each get their own session, warmed by one
	// discarded block.
	b.loopSession(refRep, refRep+1, true)
	b.loopSession(tracedRep, tracedRep+1, true)
}

// Concurrent FE callers released at one virtual instant tie, and the host
// scheduler then decides their order; a distinct offset each keeps virt_s a
// function of the inputs alone.
const churnStagger, toolStagger = 137 * time.Microsecond, 137 * time.Microsecond

const (
	loopRounds = 2                // rounds of each tool per block
	loopPace   = time.Second      // virtual pacing sleep between rounds (heartbeats keep flowing)
	loopIdle   = 20 * time.Second // traced pass: idle window that isolates the heartbeat cost
)

// loopSession launches one sample_loop session and runs blocks from..to on
// it (as far as more() allows), after one unfiled block when warm is set.
func (b *bench) loopSession(from, to int, warm bool) {
	k := b.sc.loopK
	in := b.in
	health := core.HealthOptions{Period: 500 * time.Millisecond, Miss: 3}
	payloadSum := digest(in.loopPayload)
	querySum := digest(in.loopQuery)
	tagB, tagR := coll.MinUserTag, coll.MinUserTag+1 // what Session.AllocTag hands out first

	m := b.startRep(from)
	r, err := m.boot(k)
	if !b.op("boot", err) {
		return
	}
	r.cl.Register("loop_be", func(p *cluster.Proc) {
		be, err := core.BEInit(p)
		if err != nil {
			return
		}
		dc, rank := be.Collective(), be.Rank()
		toolB := vtime.NewChan[struct{}](p.Sim())
		p.Sim().Go("loop-be-tool-b", func() {
			defer toolB.Close()
			for {
				got, err := dc.BroadcastTag(tagB)
				if err != nil {
					return
				}
				c := append([]uint64(nil), in.loopCounters[rank]...)
				c[0], c[1] = 1, b2u(digest(got) == payloadSum)
				if dc.ReduceTag(tagR, u64s(c...), "sum") != nil {
					return
				}
			}
		})
		for {
			got, err := dc.Broadcast()
			if err != nil || digest(got) != querySum {
				break
			}
			if dc.Gather(in.loopContrib[rank]) != nil {
				break
			}
		}
		toolB.Recv()
		be.Finalize()
	})
	m.runFE(r, func(p *cluster.Proc, fe *span) {
		var sess *core.Session
		if !b.call("core.LaunchAndSpawn", fe, func() (err error) {
			sess, err = core.LaunchAndSpawn(p, core.Options{
				Job:            rm.JobSpec{Exe: "app", Nodes: k, TasksPerNode: 1},
				Daemon:         rm.DaemonSpec{Exe: "loop_be", Args: in.daemonArgs},
				ICCLFanout:     16,
				CollChunkBytes: 4 << 10,
				CollWindow:     4, // small enough that the credit gate actually blocks
				Health:         health,
				Obs:            b.obs(),
			})
			return err
		}) {
			return
		}
		b.checkSession(sess, k, 1)
		b.launchLayers(sess, 16)
		w := watchFaults(sess)
		b.check(sess.AllocTag() == tagB && sess.AllocTag() == tagR, "AllocTag did not hand out the first two user tags")

		sim := p.Sim()
		// block runs both tools concurrently for loopRounds rounds each and
		// returns the sum of the round-trips' virtual durations (pacing
		// excluded).
		block := func(parent *span) time.Duration {
			var virt [2]time.Duration
			wg := vtime.NewWaitGroup(sim)
			wg.Add(2)
			sim.Go("loop-fe-tool-a", func() {
				defer wg.Done()
				for round := 0; round < loopRounds; round++ {
					if round > 0 {
						sim.Sleep(loopPace)
					}
					sp := b.tr.begin("bench.round_a", parent).on(1, parent.group()*10+round)
					v0 := sim.Now()
					var got [][]byte
					b.call("core.Broadcast", sp, func() error { return sess.Broadcast(in.loopQuery) })
					if b.call("core.Gather", sp, func() (err error) { got, err = sess.Gather(); return err }) {
						ok := len(got) == k
						for rank := 0; ok && rank < k; rank++ {
							ok = bytes.Equal(got[rank], in.loopContrib[rank])
						}
						b.check(ok, "tool A gather: %d entries (want %d), or an entry is not the generator's payload for its rank", len(got), k)
					}
					virt[0] += sim.Now() - v0
					sp.end()
				}
			})
			sim.Go("loop-fe-tool-b", func() {
				defer wg.Done()
				// Started at the same virtual instant, the two tools' first
				// frames would reach the shared FE→master connection in
				// whatever order the host scheduler picks.
				sim.Sleep(toolStagger)
				for round := 0; round < loopRounds; round++ {
					if round > 0 {
						sim.Sleep(loopPace)
					}
					sp := b.tr.begin("bench.round_b", parent).on(2, parent.group()*10+round)
					v0 := sim.Now()
					var sum []byte
					b.call("core.BroadcastTag", sp, func() error { return sess.BroadcastTag(tagB, in.loopPayload) })
					if b.call("core.ReduceTag", sp, func() (err error) { sum, err = sess.ReduceTag(tagR); return err }) {
						want := append([]uint64(nil), in.loopSums...)
						want[0], want[1] = uint64(k), uint64(k)
						b.check(bytes.Equal(sum, u64s(want...)), "tool B reduce: counters %x, want count/digest-match %d/%d and the generator's sums", sum, k, k)
					}
					virt[1] += sim.Now() - v0
					sp.end()
				}
			})
			wg.Wait()
			return virt[0] + virt[1]
		}

		if warm {
			sp := b.tr.begin("bench.block", fe).on(0, -1)
			block(sp)
			sp.end()
			runtime.GC()
			m.start = time.Now()
		}
		for n := from; n < to && b.more(n); n++ {
			// Every block starts at the same phase of the heartbeat period,
			// so the beats interleave with its traffic the same way and the
			// blocks' virtual times can be held to exact equality.
			sim.Sleep(health.Period - sim.Now()%health.Period)
			sp := b.tr.begin("bench.block", fe).on(0, n)
			m.begin(r)
			virt := block(sp)
			sp.end()
			m.end(r, k*2*loopRounds)
			m.st.virt = virt
			m.highWater()
			m.file(n)
		}
		if b.tr != nil {
			// Nothing but heartbeats for 20 virtual seconds.
			sp := b.tr.begin("health.idle", fe)
			sim.Sleep(loopIdle)
			sp.end()
			beats := float64(k) * loopIdle.Seconds() / health.Period.Seconds()
			b.layer["health.idle_us_per_beat"] = sp.dur().Seconds() * 1e6 / beats
			b.layer["health.msgs_per_daemon_vs"] = float64(sp.C1.Net.Messages-sp.C0.Net.Messages) / float64(k) / loopIdle.Seconds()
		}
		b.kill(sess, w, fe)
	})
}

// sessionChurn: per-session fixed cost. One lean cluster sized for all
// sessions, one FE process, closed-loop workers each running its sessions
// one after another: launch or attach, LaunchMW, one BE round trip and one
// MW gather (checked), then Kill or Detach.
func (b *bench) sessionChurn() {
	in := b.in
	sessions := b.sc.workers * b.sc.perWorker
	for n := 0; b.more(n); n++ {
		m := b.startRep(n)
		r, err := m.boot(in.churnNodes())
		if !b.op("boot", err) {
			return
		}
		r.cl.Register("churn_be", func(p *cluster.Proc) {
			be, err := core.BEInit(p)
			if err != nil {
				return
			}
			got, err := be.Collective().Broadcast()
			if err != nil {
				return
			}
			be.Collective().Gather(append(u64s(digest(got)), be.MyProctab().Encode()...))
			be.Finalize()
		})
		r.cl.Register("churn_mw", func(p *cluster.Proc) {
			mw, err := core.MWInit(p)
			if err != nil {
				return
			}
			mw.Collective().Gather(u64s(digest(mw.Proctab().Encode())))
			mw.Finalize()
		})
		m.runFE(r, func(p *cluster.Proc, fe *span) {
			sim := p.Sim()
			// Set-up: the jobs the odd sessions attach to, started the way a
			// user would and left to reach steady state.
			jobs := make([][]rm.Job, len(in.churn))
			for w, shapes := range in.churn {
				jobs[w] = make([]rm.Job, len(shapes))
				for i, s := range shapes {
					if !s.attach {
						continue
					}
					j, err := r.mgr.StartJob(rm.JobSpec{Exe: "app", Nodes: s.nodes, TasksPerNode: s.tasks})
					if !b.op("slurm.StartJob", err) {
						return
					}
					jobs[w][i] = j
				}
			}
			sim.Sleep(5 * time.Second)

			live0, heap0 := sim.Live(), liveBytes()
			ready := make([][]float64, len(in.churn)) // per-session e0→e11, virtual ms
			start := make([]float64, len(in.churn))   // per-worker sum of e0→e1, virtual ms
			wg := vtime.NewWaitGroup(sim)
			wg.Add(len(in.churn))
			m.begin(r)
			for w := range in.churn {
				w := w
				sim.Go(fmt.Sprintf("churn-worker-%d", w), func() {
					defer wg.Done()
					// (they would tie at the FE node's fork queue)
					sim.Sleep(time.Duration(w) * churnStagger)
					lane := b.tr.begin("bench.worker", fe).on(w+1, 0)
					for i, s := range in.churn[w] {
						sp := b.tr.begin("bench.session", lane).on(w+1, w*len(in.churn[w])+i+1)
						if tl, ok := b.churnSession(p, sp, s, jobs[w][i]); ok {
							ready[w] = append(ready[w], tl.Between(engine.MarkE0, engine.MarkE11).Seconds()*1e3)
							start[w] += tl.Between(engine.MarkE0, engine.MarkE1).Seconds() * 1e3
						}
						sp.end()
					}
					lane.end()
				})
			}
			wg.Wait()
			m.end(r, sessions)
			m.highWater()

			if b.tr != nil {
				var all []float64
				var startSum float64
				for w, v := range ready {
					all = append(all, v...)
					startSum += start[w]
				}
				L := b.layer
				L["engine.start_vms_per_session"] = startSum / float64(max(len(all), 1))
				L["core.session.ready_p50_vms"] = quantile(all, 0.50)
				L["core.session.ready_p99_vms"] = quantile(all, 0.99)
				// What the ended sessions leave behind (a finding for the
				// robustness aim, reported here and not fixed).
				L["vtime.live_leak_per_session"] = float64(sim.Live()-live0) / float64(sessions)
				L["core.session_leak_B"] = float64(m.st.liveB+m.base-heap0) / float64(sessions)
			}
		})
		m.file(n)
	}
}

// churnSession runs one session_churn session and returns its Timeline.
func (b *bench) churnSession(p *cluster.Proc, sp *span, s sessionShape, job rm.Job) (tl engine.Timeline, ok bool) {
	opts := core.Options{
		Job:        rm.JobSpec{Exe: "app", Nodes: s.nodes, TasksPerNode: s.tasks},
		Daemon:     rm.DaemonSpec{Exe: "churn_be", Args: b.in.daemonArgs},
		ICCLFanout: 4,
		Obs:        b.obs(),
	}
	var sess *core.Session
	if s.attach {
		opts.JobID = job.ID()
		ok = b.call("core.AttachAndSpawn", sp, func() (err error) { sess, err = core.AttachAndSpawn(p, opts); return err })
	} else {
		ok = b.call("core.LaunchAndSpawn", sp, func() (err error) { sess, err = core.LaunchAndSpawn(p, opts); return err })
	}
	if !ok {
		return tl, false
	}
	b.checkSession(sess, s.nodes, s.tasks)
	w := watchFaults(sess)

	b.call("core.LaunchMW", sp, func() error {
		_, err := sess.LaunchMW(core.MWOptions{Nodes: churnMWNodes, Daemon: rm.DaemonSpec{Exe: "churn_mw"}, ICCLFanout: 4})
		return err
	})
	var got [][]byte
	b.call("core.Broadcast", sp, func() error { return sess.Broadcast(s.query) })
	if b.call("core.Gather", sp, func() (err error) { got, err = sess.Gather(); return err }) {
		want := u64s(digest(s.query))
		okData := len(got) == s.nodes
		for i := range got {
			okData = okData && bytes.HasPrefix(got[i], want)
			got[i] = bytes.TrimPrefix(got[i], want)
		}
		b.check(okData, "session %d: gather has %d entries (want %d), or a daemon echoed another payload than the one sent", sess.ID, len(got), s.nodes)
		b.checkSliceUnion(sess, got)
	}
	if b.call("core.MWGather", sp, func() (err error) { got, err = sess.MWGather(); return err }) {
		want := u64s(digest(sess.Proctab().Encode()))
		okData := len(got) == churnMWNodes
		for _, g := range got {
			okData = okData && bytes.Equal(g, want)
		}
		b.check(okData, "session %d: an MW daemon's table differs from the FE's", sess.ID)
	}

	b.check(w.end() == 0, "session %d: fault status event fired", sess.ID)
	if s.attach {
		b.call("core.Detach", sp, sess.Detach)
	} else {
		b.call("core.Kill", sp, sess.Kill)
	}
	return sess.Timeline, true
}
