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
	"sync"
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

// PerMsgCost is the CPU charge for handling one tree message (heartbeats
// are cheap compared to collectives).
const PerMsgCost = 20 * time.Microsecond

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

// ErrMonitor wraps heartbeat-tree bootstrap failures.
var ErrMonitor = errors.New("health: monitor bootstrap failed")

// Monitor is one daemon's view of the heartbeat tree.
type Monitor struct {
	p   *cluster.Proc
	cfg Config

	failures *vtime.Chan[Report] // root only; nil elsewhere

	plink *iccl.Link // shared parent link (nil at root)

	// mu guards the fields below and serializes parent writes (simnet
	// writes return immediately; virtual time is charged on delivery).
	mu       sync.Mutex
	lastBeat map[int]time.Duration // direct child rank → last heard (virtual)
	reported map[int]bool          // ranks already declared dead
	stopped  bool

	// Metric handles (nil = obs off; methods on nil handles no-op).
	beatsSent, timeouts, reportsUp *obs.Counter
}

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
		return nil, fmt.Errorf("%w: bad rank/size %d/%d", ErrMonitor, cfg.Rank, cfg.Size)
	}
	if (cfg.Rank == 0) != (parent == nil) {
		return nil, fmt.Errorf("%w: parent link must be nil at rank 0 only (rank %d)", ErrMonitor, cfg.Rank)
	}
	m := &Monitor{
		p:        p,
		cfg:      cfg,
		plink:    parent,
		lastBeat: make(map[int]time.Duration),
		reported: make(map[int]bool),

		beatsSent: cfg.Metrics.Counter("health.beats.sent"),
		timeouts:  cfg.Metrics.Counter("health.timeouts"),
		reportsUp: cfg.Metrics.Counter("health.reports"),
	}
	if cfg.Rank == 0 {
		m.failures = vtime.NewChan[Report](p.Sim())
	}
	if len(children) > 0 {
		now := p.Sim().Now()
		for _, lk := range children {
			m.lastBeat[lk.Rank] = now
		}
		for _, lk := range children {
			lk := lk
			p.Sim().Go(fmt.Sprintf("health-link-reader-%d-%d", cfg.Rank, lk.Rank), func() { m.linkReader(lk) })
		}
		p.Sim().Go(fmt.Sprintf("health-check-%d", cfg.Rank), m.checkLoop)
	}
	if parent != nil {
		p.Sim().Go(fmt.Sprintf("health-beat-%d", cfg.Rank), m.beatLoop)
		p.Sim().Go(fmt.Sprintf("health-parent-%d", cfg.Rank), func() {
			// Parents never send heartbeats downward; the queue closing
			// means the parent's node (or the session) went away.
			_, _ = parent.Recv.Recv()
			m.Stop()
		})
	}
	return m, nil
}

// linkReader consumes one shared child link's heartbeat queue. The queue
// closing means the ICCL link demux saw the connection fail — the child's whole
// subtree is unreachable.
func (m *Monitor) linkReader(lk *iccl.Link) {
	for {
		payload, ok := lk.Recv.Recv()
		if !ok {
			if !m.halted() {
				m.declareSubtreeDead(lk.Rank, "connection severed")
			}
			return
		}
		if m.halted() {
			// Can't close a shared conn (the collective plane owns it);
			// just stop consuming.
			return
		}
		m.p.Compute(PerMsgCost)
		rd := lmonp.NewReader(payload)
		switch rd.Uint32() {
		case hbBeat:
			m.mu.Lock()
			m.lastBeat[lk.Rank] = m.p.Sim().Now()
			m.mu.Unlock()
		case hbDead:
			if reports, err := decodeReports(rd); err == nil {
				m.propagate(reports)
			}
		}
	}
}

// Failures returns the root's failure-report stream (nil off-root). The
// channel closes when the monitor stops.
func (m *Monitor) Failures() *vtime.Chan[Report] { return m.failures }

// Rank returns the monitor's tree rank.
func (m *Monitor) Rank() int { return m.cfg.Rank }

// Config returns the effective configuration (defaults applied).
func (m *Monitor) Config() Config { return m.cfg }

// Stop leaves the heartbeat tree: the periodic loops wind down and (at the
// root) the failure stream closes. Idempotent.
func (m *Monitor) Stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	m.mu.Unlock()
	if m.failures != nil {
		m.failures.Close()
	}
}

// halted reports whether the monitor stopped or its process exited (a dead
// daemon must not keep virtual-time timers alive).
func (m *Monitor) halted() bool {
	m.mu.Lock()
	stopped := m.stopped
	m.mu.Unlock()
	return stopped || m.p.State() == cluster.StateExited
}

// beatLoop sends one heartbeat per period to the parent.
func (m *Monitor) beatLoop() {
	beat := lmonp.AppendUint32(nil, hbBeat)
	// Prime immediately so the parent's miss window starts from a beat.
	if err := m.sendUp(beat); err != nil {
		return
	}
	m.beatsSent.Inc()
	for {
		m.p.Sim().Sleep(m.cfg.Period)
		if m.halted() {
			return
		}
		if err := m.sendUp(beat); err != nil {
			return
		}
		m.beatsSent.Inc()
	}
}

// checkLoop declares children dead when they miss too many heartbeats.
func (m *Monitor) checkLoop() {
	threshold := time.Duration(m.cfg.Miss) * m.cfg.Period
	for {
		m.p.Sim().Sleep(m.cfg.Period)
		if m.halted() {
			return
		}
		now := m.p.Sim().Now()
		var late []int
		m.mu.Lock()
		for rank, last := range m.lastBeat {
			if !m.reported[rank] && now-last > threshold {
				late = append(late, rank)
			}
		}
		m.mu.Unlock()
		for _, rank := range late {
			m.timeouts.Inc()
			m.declareSubtreeDead(rank, "heartbeat timeout")
		}
	}
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
	m.mu.Lock()
	for _, r := range reports {
		if m.reported[r.Rank] {
			continue
		}
		m.reported[r.Rank] = true
		fresh = append(fresh, r)
	}
	stopped := m.stopped
	m.mu.Unlock()
	if len(fresh) == 0 || stopped {
		return
	}
	m.reportsUp.Add(uint64(len(fresh)))
	if m.failures != nil {
		for _, r := range fresh {
			m.failures.Send(r)
		}
		return
	}
	frame := lmonp.AppendUint32(nil, hbDead)
	frame = encodeReports(frame, fresh)
	_ = m.sendUp(frame)
}

// sendUp writes one frame to the parent over the shared ICCL link,
// serialized across the beat, reader and checker goroutines.
func (m *Monitor) sendUp(frame []byte) error {
	if m.plink == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return errors.New("health: monitor stopped")
	}
	return m.plink.Send(frame)
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
