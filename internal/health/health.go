// Package health is LaunchMON's failure-detection subsystem: a heartbeat
// fabric piggybacked on the links of the ICCL daemon tree
// (internal/iccl), detecting daemon and node loss at 10^4-node scale and
// propagating failure reports to the tree root (the master back-end
// daemon), which forwards them to the front end as LMONP status events.
//
// Two detection paths exist:
//
//   - connection sever: a killed node's connections return
//     simnet.ErrPeerDead once in-flight data drains, so the parent learns
//     of the loss within one link latency (fail-stop, fast path); and
//   - heartbeat miss: a silent failure (dropped link, wedged daemon)
//     surfaces when a child misses Miss consecutive periods, bounded by
//     Period x Miss (slow path).
//
// Either way the parent declares the child's entire subtree unreachable
// (descendants cannot report through a dead interior node) and sends one
// report per lost rank toward the root. All waiting, sending and per-message
// processing is charged in virtual time, so detection latency and heartbeat
// overhead are measurable quantities (see internal/bench).
package health

import (
	"errors"
	"fmt"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/iccl"
	"launchmon/internal/lmonp"
	"launchmon/internal/obs"
	"launchmon/internal/vtime"
)

// Heartbeat-tree opcodes.
const (
	hbBeat = 2 // child → parent: heartbeat
	hbDead = 3 // child → parent: failure report batch
)

// perMsgCost is the CPU charge for handling one tree message (heartbeats
// are cheap compared to collectives).
const perMsgCost = 20 * time.Microsecond

// Config describes one daemon's place in the heartbeat tree. Rank, Size
// and Fanout mirror the daemon's iccl.Config — the heartbeat tree is the
// ICCL tree, riding its links.
type Config struct {
	Rank   int
	Size   int
	Fanout int // 0 = flat (everyone under rank 0)

	// Period is the interval between heartbeats (default 500ms).
	Period time.Duration
	// Miss is how many consecutive periods a child may miss before it is
	// declared dead (default 3).
	Miss int

	// Metrics receives heartbeat-plane counters (health.beats.sent,
	// health.timeouts, health.reports) when set; nil disables
	// instrumentation at zero cost.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Fanout <= 0 {
		c.Fanout = c.Size
	}
	if c.Period == 0 {
		c.Period = 500 * time.Millisecond
	}
	if c.Miss == 0 {
		c.Miss = 3
	}
	return c
}

// Report is one detected daemon loss, delivered at the tree root.
type Report struct {
	Rank   int    // lost daemon's rank
	Detail string // "connection severed", "heartbeat timeout", "unreachable"
}

// errMonitor wraps heartbeat-tree bootstrap failures.
var errMonitor = errors.New("health: monitor bootstrap failed")

// Monitor is one daemon's view of the heartbeat tree: a state machine on
// the vtime scheduler. It parks no goroutine and takes no lock — its tick
// (Fire) and its link handlers are scheduler callbacks, which run one at a
// time and only while no simulated goroutine is runnable, so they overlap
// neither each other nor the daemon goroutine calling Stop.
type Monitor struct {
	p   *cluster.Proc
	cfg Config

	failures *vtime.Chan[Report] // root only; nil elsewhere

	// plink is the shared parent link: nil at the root, and dropped after
	// a failed send — nothing more can go up a dead link.
	plink    *iccl.Link
	kids     []child      // direct children, in tree slot order
	reported map[int]bool // ranks already declared dead
	stopped  bool

	// Metric handles (nil = obs off; methods on nil handles no-op).
	beatsSent, timeouts, reportsUp *obs.Counter
}

// child is one direct child's link state.
type child struct {
	rank int
	last time.Duration // last beat handled (virtual)
	// fr charges the link's frames like the blocking reader it stands in
	// for: each is handled perMsgCost after the later of its arrival and
	// the previous frame's handling, and the link's close waits behind them.
	fr iccl.SerialFramer
}

// beatFrame is the heartbeat payload (Link.Send copies it).
var beatFrame = lmonp.AppendUint32(nil, hbBeat)

// StartOnLinks joins the calling daemon into the session's heartbeat tree
// and begins monitoring. Heartbeats piggyback on the established ICCL tree
// links (iccl.Comm.ShareLinks) — no connections of their own. parent must
// be nil exactly at rank 0; children are the shared links of this daemon's
// connected ICCL children. A severed node closes the link queues (fast
// path); silent failures surface via heartbeat misses. Stop leaves the
// shared connections alone — they belong to the collective plane — so a
// daemon's descendants wind down when its communicator closes the links,
// not when its monitor stops.
func StartOnLinks(p *cluster.Proc, cfg Config, parent *iccl.Link, children []*iccl.Link) (*Monitor, error) {
	cfg = cfg.withDefaults()
	if cfg.Size <= 0 || cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("%w: bad rank/size %d/%d", errMonitor, cfg.Rank, cfg.Size)
	}
	if (cfg.Rank == 0) != (parent == nil) {
		return nil, fmt.Errorf("%w: parent link must be nil at rank 0 only (rank %d)", errMonitor, cfg.Rank)
	}
	sim := p.Sim()
	m := &Monitor{
		p:        p,
		cfg:      cfg,
		plink:    parent,
		kids:     make([]child, len(children)),
		reported: make(map[int]bool),

		beatsSent: cfg.Metrics.Counter("health.beats.sent"),
		timeouts:  cfg.Metrics.Counter("health.timeouts"),
		reportsUp: cfg.Metrics.Counter("health.reports"),
	}
	if cfg.Rank == 0 {
		m.failures = vtime.NewChan[Report](sim)
	}
	now := sim.Now()
	for slot, lk := range children {
		k := &m.kids[slot]
		*k = child{rank: lk.Rank, last: now, fr: iccl.SerialFramer{
			Sim: sim, Cost: perMsgCost,
			Deliver: func(payload []byte) { m.onChildBeat(k, payload) },
		}}
		lk.Recv.Handle(func(payload []byte, ok bool) { m.onChildFrame(k, payload, ok) })
	}
	if parent != nil {
		// Parents never send heartbeats downward; the queue closing means
		// the parent's node (or the session) went away.
		parent.Recv.Handle(func(_ []byte, ok bool) {
			if !ok {
				m.Stop()
			}
		})
	}
	// Prime immediately so the parent's miss window starts from a beat.
	m.beat()
	m.arm()
	return m, nil
}

// onChildFrame takes one arrival off a shared child link's heartbeat
// queue. The queue closing means the ICCL link demux saw the connection
// fail — the child's whole subtree is unreachable. A halted monitor drops
// what arrives (it can't close a shared conn; the collective plane owns
// it); halted is sampled at the frame's arrival, not when its turn comes.
func (m *Monitor) onChildFrame(k *child, payload []byte, ok bool) {
	switch {
	case !ok:
		k.fr.Behind(func() {
			if !m.halted() {
				m.declareSubtreeDead(k.rank, "connection severed")
			}
		})
	case !m.halted():
		k.fr.Charge(payload)
	}
}

// onChildBeat handles one charged heartbeat-queue payload of child k: a
// beat, or the failure reports of its subtree.
func (m *Monitor) onChildBeat(k *child, payload []byte) {
	rd := lmonp.NewReader(payload)
	switch rd.Uint32() {
	case hbBeat:
		k.last = m.p.Sim().Now()
	case hbDead:
		if reports, err := decodeReports(rd); err == nil {
			m.propagate(reports)
		}
	}
}

// Failures returns the root's failure-report stream (nil off-root). The
// channel closes when the monitor stops.
func (m *Monitor) Failures() *vtime.Chan[Report] { return m.failures }

// Stop leaves the heartbeat tree: the tick winds down and (at the root)
// the failure stream closes. Idempotent.
func (m *Monitor) Stop() {
	if m.stopped {
		return
	}
	m.stopped = true
	if m.failures != nil {
		m.failures.Close()
	}
}

// halted reports whether the monitor stopped or its process exited (a dead
// daemon must not keep virtual-time timers alive).
func (m *Monitor) halted() bool {
	return m.stopped || m.p.State() == cluster.StateExited
}

// arm schedules the next tick one period from now — while there is a child
// to check or a parent to beat to: a daemon that can no longer beat still
// checks its children.
func (m *Monitor) arm() {
	if len(m.kids) > 0 || m.plink != nil {
		m.p.Sim().AfterEvent(m.cfg.Period, m)
	}
}

// Fire is the daemon's one tick per period (the Monitor is its own
// vtime.Event), in one fixed order: children that missed too many
// heartbeats are declared dead in slot order, then the daemon beats
// upward, then the tick re-arms. It is an order because the two are a tie
// — a failure report and a beat leave on one parent link at one virtual
// instant, and the parent's serial reader charges whichever comes second
// perMsgCost more; report first is what detection latency is quoted at.
func (m *Monitor) Fire() {
	if m.halted() {
		return
	}
	now := m.p.Sim().Now()
	threshold := time.Duration(m.cfg.Miss) * m.cfg.Period
	for i := range m.kids {
		if k := &m.kids[i]; !m.reported[k.rank] && now-k.last > threshold {
			m.timeouts.Inc()
			m.declareSubtreeDead(k.rank, "heartbeat timeout")
		}
	}
	m.beat()
	m.arm()
}

// beat sends one heartbeat to the parent, if there is one.
func (m *Monitor) beat() {
	if m.sendUp(beatFrame) {
		m.beatsSent.Inc()
	}
}

// sendUp writes one frame to the parent over the shared ICCL link (simnet
// writes return immediately; virtual time is charged on delivery).
func (m *Monitor) sendUp(frame []byte) bool {
	if m.plink == nil {
		return false
	}
	if err := m.plink.Send(frame); err != nil {
		m.plink = nil
		return false
	}
	return true
}

// declareSubtreeDead reports the child rank and all its descendants lost
// (an interior-node failure makes its whole subtree unreachable).
func (m *Monitor) declareSubtreeDead(rank int, detail string) {
	var reports []Report
	for _, r := range iccl.SubtreeRanks(rank, m.cfg.Size, m.cfg.Fanout) {
		d := detail
		if r != rank {
			d = "unreachable"
		}
		reports = append(reports, Report{Rank: r, Detail: d})
	}
	m.propagate(reports)
}

// propagate delivers failure reports: to the failure stream at the root,
// upward to the parent elsewhere. Already-reported ranks are dropped so
// the sever and timeout paths cannot double-report.
func (m *Monitor) propagate(reports []Report) {
	fresh := reports[:0]
	for _, r := range reports {
		if !m.reported[r.Rank] {
			m.reported[r.Rank] = true
			fresh = append(fresh, r)
		}
	}
	if len(fresh) == 0 || m.stopped {
		return
	}
	m.reportsUp.Add(uint64(len(fresh)))
	if m.failures != nil {
		for _, r := range fresh {
			m.failures.Send(r)
		}
		return
	}
	m.sendUp(encodeReports(lmonp.AppendUint32(nil, hbDead), fresh))
}

func encodeReports(b []byte, reports []Report) []byte {
	b = lmonp.AppendUint32(b, uint32(len(reports)))
	for _, r := range reports {
		b = lmonp.AppendUint32(b, uint32(r.Rank))
		b = lmonp.AppendString(b, r.Detail)
	}
	return b
}

func decodeReports(rd *lmonp.Reader) ([]Report, error) {
	// Each report is a rank and a length-prefixed detail.
	n := rd.Count(8)
	out := make([]Report, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Report{Rank: int(rd.Uint32()), Detail: rd.String()})
	}
	return out, rd.Err()
}
