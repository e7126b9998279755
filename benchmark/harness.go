package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/core"
	"launchmon/internal/engine"
	"launchmon/internal/health"
	"launchmon/internal/proctab"
	"launchmon/internal/rm/slurm"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// processStart anchors setup_s and every span's host clock.
var processStart = time.Now()

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measured reps continue until their timed sections add up to this
	trace    bool    // traced pass (reference rep + traced rep, per-layer metrics)
	quick    bool    // every K and session count ÷32, 1+1 reps
	kernels  bool    // traced pass also runs the kernel pass
	traceDir string
}

// repStats is what one rep's timed section measured.
type repStats struct {
	pre     time.Duration // rep start → timed section begins (GC, rig boot, untimed set-up)
	wall    time.Duration
	cpu     time.Duration
	virt    time.Duration
	mallocs uint64
	bytes   uint64
	liveB   int64 // HeapAlloc+StackInuse after a forced GC at the high-water instant, minus the pre-boot reading
	units   int
	net     simnet.Stats // traffic of the timed section
	numGC   uint32
	pause   time.Duration // GC stop-the-world pause total
	calib   time.Duration // calibration kernel, mean of the runs before and after the timed section
}

// speed is the host-speed factor of the rep: above 1 when the host ran
// faster than the reference while the rep was measured.
func (r repStats) speed() float64 { return calibRef.Seconds() / r.calib.Seconds() }

// bench carries one workload run: inputs, rep bookkeeping, the operation
// ledger behind attempted/failed, and (traced pass) the span recorder.
type bench struct {
	cfg config
	sc  scale
	in  *inputs
	tr  *tracer // nil unless the current rep is the traced one

	reps        []repStats    // measured reps (the warm-up is discarded)
	warmEnd     time.Duration // process start → warm-up rep fully ended
	ref, traced repStats      // traced pass: the untraced obs-off reference rep and the traced obs-on one

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string

	layer map[string]float64 // per-layer metrics gathered by the traced rep and the kernels
}

func newBench(cfg config) *bench {
	sc := newScale(cfg.quick)
	return &bench{cfg: cfg, sc: sc, in: generate(cfg.seed, sc), layer: make(map[string]float64)}
}

// op counts one FE API call; check counts one output check.
func (b *bench) op(what string, err error) bool {
	return b.check(err == nil, "%s: %v", what, err)
}

func (b *bench) check(ok bool, format string, args ...any) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.failed++
		if len(b.failures) < 10 {
			b.failures = append(b.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// Rep numbers of the traced pass: after the warm-up, an untraced obs-off
// reference, then the traced obs-on rep.
const refRep, tracedRep = 1, 2

// more reports whether rep n should run. Rep 0 is the discarded warm-up;
// measured reps continue until their timed sections fill -seconds (at
// least two, so there is a median to take). The traced pass runs the two
// reps above, the -quick smoke one measured rep.
func (b *bench) more(n int) bool {
	const minReps, maxReps = 2, 8
	switch {
	case b.cfg.trace:
		return n <= tracedRep
	case b.cfg.quick:
		return n < 2
	case n <= minReps:
		return true
	case n > maxReps:
		return false
	}
	var sum time.Duration
	for _, r := range b.reps {
		sum += r.wall
	}
	return sum.Seconds() < b.cfg.seconds
}

// traceFrom switches the span recorder on when rep n is the traced one.
func (b *bench) traceFrom(n int) {
	if b.cfg.trace && n == tracedRep && b.tr == nil {
		b.tr = &tracer{start: processStart}
	}
}

// reference reports whether the current rep is the traced pass's untraced
// obs-off reference. What explains the end-to-end numbers (runtime state,
// traffic counts) is read there, not under the observability plane.
func (b *bench) reference() bool { return b.cfg.trace && b.tr == nil }

// obs is the session observability mode of the current rep: on in the
// traced rep, off everywhere else.
func (b *bench) obs() core.ObsMode {
	if b.tr != nil {
		return core.ObsOn
	}
	return core.ObsDefault
}

// calibrate measures the host's speed (calib.go). The discarded warm-up
// and the -quick smoke take the reference speed instead.
func (m *meter) calibrate() time.Duration {
	if m.warm || m.b.cfg.quick {
		return calibRef
	}
	return calibrate()
}

// meter measures one rep.
type meter struct {
	b     *bench
	warm  bool // the next timed section is the discarded warm-up
	start time.Time
	base  int64 // live bytes before rig boot
	root  *span

	t0 time.Time
	c0 time.Duration
	v0 time.Duration
	m0 runtime.MemStats
	n0 simnet.Stats
	st repStats
}

func liveBytes() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc + m.StackInuse)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startRep opens rep n on a collected heap, so the GC's pacing state does
// not leak from one rep into the next.
func (b *bench) startRep(n int) *meter {
	b.traceFrom(n)
	m := &meter{b: b, warm: n == 0, start: time.Now()}
	m.root = b.tr.begin("bench.rep", nil).on(0, n)
	m.base = liveBytes()
	return m
}

// begin and end bracket a timed section.
func (m *meter) begin(r *rig) {
	m.st.pre = time.Since(m.start)
	m.st.calib = m.calibrate()
	m.n0 = r.cl.Net().Stats()
	m.v0 = r.sim.Now()
	runtime.ReadMemStats(&m.m0)
	m.c0 = cpuTime()
	m.t0 = time.Now()
}

func (m *meter) end(r *rig, units int) {
	m.st.wall = time.Since(m.t0)
	m.st.cpu = cpuTime() - m.c0
	m.st.calib = (m.st.calib + m.calibrate()) / 2
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	m.st.virt = r.sim.Now() - m.v0
	m.st.mallocs = m1.Mallocs - m.m0.Mallocs
	m.st.bytes = m1.TotalAlloc - m.m0.TotalAlloc
	m.st.numGC = m1.NumGC - m.m0.NumGC
	m.st.pause = time.Duration(m1.PauseTotalNs - m.m0.PauseTotalNs)
	n1 := r.cl.Net().Stats()
	m.st.net = simnet.Stats{Messages: n1.Messages - m.n0.Messages, Bytes: n1.Bytes - m.n0.Bytes, Dials: n1.Dials - m.n0.Dials}
	m.st.units = units
	if m.b.reference() {
		m.b.layer["vtime.goroutines_peak_per_daemon"] = float64(r.sim.PeakLive()) / float64(r.cl.NumNodes())
	}
}

// highWater takes the live-memory reading at the workload's high-water
// instant; in the reference rep it also records the runtime's own share.
func (m *meter) highWater() {
	m.st.liveB = liveBytes() - m.base
	if m.b.reference() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.b.layer["runtime.stack_MB"] = float64(ms.StackInuse) / 1e6
		m.b.layer["runtime.heap_sys_MB"] = float64(ms.HeapSys) / 1e6
	}
}

// file records the timed section just measured as rep n — the discarded
// warm-up, the traced pass's reference, or a measured rep — and restarts
// the set-up clock for the next timed section on the same rig.
func (m *meter) file(n int) {
	b := m.b
	switch {
	case n == 0:
		b.warmEnd = time.Since(processStart)
	case b.cfg.trace && n == refRep:
		b.ref = m.st
	case b.cfg.trace:
		b.traced = m.st
	default:
		b.reps = append(b.reps, m.st)
	}
	m.warm = false
	m.start = time.Now()
}

// rig is one simulated machine with the RM and LaunchMON installed: the
// lean rig of the million-daemon bench (no rsh, DPCL or tools). The
// benchmark builds it from the layers itself so each call is a span.
type rig struct {
	sim *vtime.Sim
	cl  *cluster.Cluster
	mgr *slurm.Manager
}

func (m *meter) boot(nodes int) (*rig, error) {
	tr := m.b.tr
	boot := tr.begin("bench.boot", m.root)
	defer boot.end()

	sp := tr.begin("vtime.New", boot)
	sim := vtime.New()
	sp.end()

	sp = tr.begin("cluster.New", boot)
	cl, err := cluster.New(sim, cluster.Options{Nodes: nodes})
	sp.end()
	if err != nil {
		return nil, err
	}
	tr.bind(sim, cl.Net())

	sp = tr.begin("slurm.Install", boot)
	mgr, err := slurm.Install(cl, slurm.Config{})
	sp.end()
	if err != nil {
		return nil, err
	}

	sp = tr.begin("core.Setup", boot)
	core.Setup(cl, mgr)
	sp.end()
	return &rig{sim: sim, cl: cl, mgr: mgr}, nil
}

// runFE runs fn as the tool front-end process and drives the simulation
// until it is quiescent. The teardown after fn returns (Sim.Run aborting
// whatever is still parked) lies outside every timed section; its span is
// the only place it shows.
func (m *meter) runFE(r *rig, fn func(p *cluster.Proc, parent *span)) {
	tr := m.b.tr
	run := tr.begin("vtime.Run", m.root)
	var teardown *span
	r.sim.Go("bench-fe-boot", func() {
		_, err := r.cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "bench_fe", Main: func(p *cluster.Proc) {
			fe := tr.begin("bench.fe", run)
			fn(p, fe)
			fe.end()
			teardown = tr.begin("vtime.teardown", run)
		}})
		m.b.op("SpawnProc(bench_fe)", err)
	})
	r.sim.Run()
	teardown.end()
	run.end()
	m.root.end()
	tr.bind(nil, nil)
	if tr != nil {
		m.b.layer["vtime.teardown_s"] = teardown.dur().Seconds()
	}
}

// watchFaults counts status events that mean something broke: a lost
// daemon, or the job or session ending before the tool asked for it.
// ending() is called right before Kill/Detach.
type faultWatch struct {
	mu     sync.Mutex
	ending bool
	faults int
}

func watchFaults(sess *core.Session) *faultWatch {
	w := &faultWatch{}
	sess.RegisterStatusCB(func(ev health.Event) {
		w.mu.Lock()
		defer w.mu.Unlock()
		if ev.Kind == health.EvDaemonExited || (!w.ending && ev.Kind != health.EvDaemonsSpawned) {
			w.faults++
		}
	})
	return w
}

func (w *faultWatch) end() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ending = true
	return w.faults
}

// checkSession runs the output checks every launch shares: daemon count,
// a valid FE table of nodes×tasks entries, and monotone e-mark chains.
func (b *bench) checkSession(sess *core.Session, nodes, tasks int) {
	b.check(len(sess.Daemons()) == nodes, "session %d: %d daemons, want %d", sess.ID, len(sess.Daemons()), nodes)
	tab := sess.Proctab()
	err := tab.Validate()
	b.check(err == nil && len(tab) == nodes*tasks, "session %d: FE table has %d entries (want %d), validate: %v", sess.ID, len(tab), nodes*tasks, err)
	b.check(chainMonotone(sess.Timeline, engine.MarkE0, engine.MarkE1, engine.MarkE2, engine.MarkE3, engine.MarkE4, engine.MarkE5, engine.MarkE6, engine.MarkE11) &&
		chainMonotone(sess.Timeline, engine.MarkE5, engine.MarkE7, engine.MarkE8, engine.MarkE9, engine.MarkE10, engine.MarkE11),
		"session %d: e-marks not monotone: %v", sess.ID, sess.Timeline.Entries)
}

func chainMonotone(tl engine.Timeline, marks ...string) bool {
	var last time.Duration
	for _, name := range marks {
		at, ok := tl.Get(name)
		if !ok || at < last {
			return false
		}
		last = at
	}
	return true
}

// checkSliceUnion verifies that the daemons' gathered rank slices add up to
// exactly the FE's table, byte for byte.
func (b *bench) checkSliceUnion(sess *core.Session, slices [][]byte) {
	want := append(proctab.Table(nil), sess.Proctab()...)
	want.SortByRank()
	var union proctab.Table
	for rank, raw := range slices {
		t, err := proctab.Decode(raw)
		if err != nil {
			b.check(false, "session %d: rank %d slice: %v", sess.ID, rank, err)
			return
		}
		union = append(union, t...)
	}
	union.SortByRank()
	b.check(bytes.Equal(union.Encode(), want.Encode()), "session %d: union of %d rank slices differs from the FE table", sess.ID, len(slices))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile (nearest rank) of v.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	return s[min(len(s)-1, int(q*float64(len(s))))]
}

// rssPeakMB reads this process's VmHWM.
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if f := bytes.Fields(line); len(f) >= 2 && string(f[0]) == "VmHWM:" {
			kb, _ := strconv.ParseFloat(string(f[1]), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// endToEnd folds the measured reps into the end-to-end metrics: medians of
// the host readings, and a virtual time that must be bit-identical on
// every rep — determinism is checked, not assumed.
func (b *bench) endToEnd() (map[string]float64, error) {
	if len(b.reps) == 0 {
		return nil, fmt.Errorf("%s: no measured rep completed", b.cfg.workload)
	}
	col := func(f func(r repStats) float64) float64 {
		v := make([]float64, len(b.reps))
		for i, r := range b.reps {
			v[i] = f(r)
		}
		return median(v)
	}
	for _, r := range b.reps[1:] {
		if r.virt != b.reps[0].virt {
			return nil, fmt.Errorf("%s: virt_s differs between reps: %.9f vs %.9f", b.cfg.workload, b.reps[0].virt.Seconds(), r.virt.Seconds())
		}
	}
	// Host times are in reference-host seconds (calib.go): each rep by its
	// own speed factor, the set-up by the run's median one.
	speed := col(repStats.speed)
	return map[string]float64{
		"setup_s":          speed * (b.warmEnd.Seconds() + col(func(r repStats) float64 { return r.pre.Seconds() })),
		"wall_s":           col(func(r repStats) float64 { return r.speed() * r.wall.Seconds() }),
		"cpu_s":            col(func(r repStats) float64 { return r.speed() * r.cpu.Seconds() }),
		"virt_s":           b.reps[0].virt.Seconds(),
		"allocs_per_unit":  col(func(r repStats) float64 { return float64(r.mallocs) / float64(r.units) }),
		"alloc_B_per_unit": col(func(r repStats) float64 { return float64(r.bytes) / float64(r.units) }),
		"live_MB":          col(func(r repStats) float64 { return float64(r.liveB) / 1e6 }),
		"rss_peak_MB":      rssPeakMB(),
	}, nil
}
