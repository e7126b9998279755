package core

import (
	"fmt"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/engine"
	"launchmon/internal/iccl"
	"launchmon/internal/lmonp"
	"launchmon/internal/obs"
	"launchmon/internal/proctab"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// This file is the front-end half of the launch pipeline (DESIGN.md "Life
// of a session"). Under the default cut-through mode the FE does not
// buffer the full RPDTAB from the engine and retransmit it after the
// spawn status arrives: it relays each chunk toward the master back-end
// daemon as it arrives, and accepts the master's connection concurrently
// with the engine stream and status wait — so the FE↔BE handshake (with
// FEData ahead of the table) begins the moment the master dials in,
// typically while the RM is still spawning the master's sibling daemons.
// The store-forward baseline is the same relay started late.

// SeedMode selects how a session's seed — the RPDTAB plus the
// piggybacked Options.FEData — reaches every back-end daemon.
type SeedMode int

const (
	// SeedCutThrough (the default) streams the seed end to end: the FE
	// relays engine chunks to the master as they arrive, and the master
	// injects them into an ICCL seed stream that interior daemons forward
	// while the tree is still forming. No component ever store-and-forwards
	// the full table, and no daemon retains it: interior daemons keep the
	// entries whose host they own and re-pack the rest into per-subtree
	// streams (iccl.SeedRouter), while the full table lives once per
	// session in a shared immutable index (sessionShared) — O(K/daemons)
	// table memory per daemon instead of O(K).
	SeedCutThrough SeedMode = iota
	// SeedStoreForward is the serialized baseline (the paper's Figure 2
	// pipeline): full-table buffering at the FE and again at the master,
	// which broadcasts it as one monolithic frame after bootstrap, so every
	// daemon retains the complete table. Kept for the launch-pipeline
	// ablation and for the §4 analytic model, whose decomposition assumes
	// the serialized event chain.
	SeedStoreForward
)

// String names the mode for diagnostics, bench output and the daemon
// bootstrap environment (LMON_SEED_MODE).
func (m SeedMode) String() string {
	if m == SeedStoreForward {
		return "store-forward"
	}
	return "cut-through"
}

// seedRelay is a launching fabric's sub-state (feFabric.launch): the one
// Chan its launching call blocks on, and the seed stream toward the
// fabric's master daemon — RPDTAB chunk messages closed by the end marker
// (proctab.EncodeEndMarker), behind the handshake that carries FEData. A
// message goes out once the launch path has accepted it and the master has
// connected, whichever is later, so the relay overlaps whatever else the
// call waits for: the engine's chunk stream on the BE fabric, the spawn
// status on the MW fabric. Apart from in, only the launching call touches
// it.
type seedRelay struct {
	fab    *feFabric
	in     *vtime.Chan[feIn] // every input of the launching call (made by inClaim)
	feData []byte
	span   *obs.Span    // open from start to the master's ready, or the failure
	conn   *lmonp.Conn  // the master, once the handshake went out
	queued []*lmonp.Msg // accepted before that
	seedB  int          // table bytes relayed so far

	due, bound time.Duration // armed at the RM's spawn answer: when next gives up (0: never), and why
	k          int           // the fabric's daemon count
	asked      bool          // the master was asked readyGrace before the bound whom it waits on

	done  bool            // the master reported ready, with
	infos []DaemonInfo    // its daemon set and
	tl    engine.Timeline // its marks, merged with the relay's
}

// launchFabric takes fab from down to up — the BE fabric takes the session
// to ready with it — around drive, the launch path that blocks on
// relay.in, or back down (the session: to ended) if that fails.
func (s *Session) launchFabric(fab *feFabric, relay *seedRelay, drive func() error) error {
	if err := s.step(&input{kind: inClaim, fab: fab, relay: relay}); err != nil {
		return err
	}
	err := drive()
	relay.span.End() // open only if drive failed
	relay.in.Close() // what handlers still send here is dropped
	return s.step(&input{kind: inLaunched, fab: fab, err: err})
}

// start opens the relay: from now the mux hands the fabric's master
// connection over as soon as it has dialed in — at once if it already has.
func (r *seedRelay) start() {
	s, fab := r.fab.s, r.fab
	r.span = s.obsRec.Start("seed-relay-" + fab.prof.kind)
	s.ep.Handle(fab.prof.role, func(c *lmonp.Conn, err error) {
		s.step(&input{kind: inConn, fab: fab, conn: c, err: err})
	})
}

// arm starts the fabric's clock at the RM's spawn answer: all k daemons
// exist, so the master has readyBound (in two steps) to connect and report ready.
func (r *seedRelay) arm(k, fanout int, mode SeedMode) {
	r.k, r.bound = k, readyBound(k, fanout, mode, r.seedB+len(r.feData))
	r.due = r.fab.s.p.Sim().Now() + r.bound - readyGrace
}

// next blocks for the launching call's next input, until the armed
// deadline at most.
func (r *seedRelay) next() (in feIn, err error) {
	var ok, late bool
	if r.due == 0 {
		in, ok = r.in.Recv()
	} else {
		in, ok, late = r.in.RecvTimeout(r.due - r.fab.s.p.Sim().Now())
	}
	switch {
	case late && !r.asked: // a connected master is told to end its bootstrap, naming whom it waits on
		r.asked, r.due = true, r.due+readyGrace
		if r.conn != nil {
			r.conn.Send(&lmonp.Msg{Class: r.fab.prof.class, Type: lmonp.TypeStatus})
		}
		return r.next()
	case late:
		return in, r.expired()
	case !ok: // closed as a pending reply (step, inConnEnd)
		return in, r.fab.s.engineErr("connection lost")
	}
	return in, nil
}

// expired is the error of a master that did not connect or report ready in time.
func (r *seedRelay) expired() error {
	phase := "did not report ready"
	if r.conn == nil {
		phase = "did not connect"
	}
	return fmt.Errorf("core: session %d: %s master daemon %s within %v of the spawn answer (K=%d)",
		r.fab.s.ID, r.fab.prof.kind, phase, r.bound, r.k)
}

// engineBound bounds the engine's dial-back from its fork's return by the
// FE node's own costs: twice a fork, engine.BaseCost and a loopback dial.
var engineBound = 2 * (cluster.ForkCost + engine.BaseCost + 4*simnet.LoopbackLatency)

// readyGrace is how long before readyBound the front end asks a master whom it
// waits on: a round trip with a tree message's handling at each end.
const readyGrace = 2 * (simnet.Latency + iccl.PerMsgCost)

// readyBound is four times what forming a k-daemon tree costs once every
// daemon exists: a level's redial, fork, two round trips and a parent's
// join, ready and gather frame a child, plus the seed on the wire (once a
// hop under store-forward, which relays it after the answer) and the ready
// gather's ≤ 64 B a daemon. DESIGN.md "Deadlines" has its headroom table.
func readyBound(k, fanout int, mode SeedMode, seedB int) time.Duration {
	if fanout <= 0 || fanout > k {
		fanout = max(k, 1) // flat
	}
	levels := 1
	for n, w := 1, fanout; n < k; n, w = n+w, w*fanout {
		levels++
	}
	hops := 1
	if mode == SeedStoreForward {
		hops = levels + 1
	}
	level := iccl.DialRetry + cluster.ForkCost + 4*simnet.Latency + time.Duration(3*fanout)*iccl.PerMsgCost
	wire := time.Duration(float64(hops*seedB+levels*k*64) / simnet.Bandwidth * float64(time.Second))
	return 4 * (time.Duration(levels)*level + wire)
}

// forward relays one message of the seed stream — when the master has
// connected: until then it is queued.
func (r *seedRelay) forward(typ lmonp.MsgType, payload []byte) error {
	r.seedB += len(payload)
	r.queued = append(r.queued, &lmonp.Msg{Class: r.fab.prof.class, Type: typ, Payload: payload})
	return r.flush()
}

func (r *seedRelay) flush() error {
	if r.conn == nil || len(r.queued) == 0 {
		return nil
	}
	s, mark := r.fab.s, r.fab.prof.marks.SeedFwd
	if _, marked := r.tl.Get(mark); !marked {
		r.tl.Mark(mark, s.p.Sim().Now())
	}
	for _, m := range r.queued {
		if m.Type == lmonp.TypeProctabChunk {
			s.obsCounter("fe.relay.chunks").Inc()
			s.obsCounter("fe.relay.bytes").Add(uint64(len(m.Payload)))
		}
		if err := r.conn.Send(m); err != nil {
			return fmt.Errorf("core: relaying session seed to %s master: %w", r.fab.prof.kind, err)
		}
	}
	r.queued = nil
	return nil
}

// input takes what came from the master's side: its connection, its ready
// message, or the error instead of either.
func (r *seedRelay) input(in feIn) error {
	s, prof := r.fab.s, r.fab.prof
	switch {
	case r.done:
		// A master may finalize right behind its ready; that its link then
		// ends is the data plane's business (and step's, if it was severed).
	case in.err != nil && r.conn == nil:
		return fmt.Errorf("core: %s master daemon did not connect: %w", prof.kind, in.err)
	case in.err != nil:
		return fmt.Errorf("core: awaiting %s master ready: %w", prof.kind, in.err)
	case in.conn != nil:
		r.tl.Mark(prof.marks.Accept, s.p.Sim().Now())
		// FEData rides the handshake ahead of the proctab stream, so every
		// daemon has its bootstrap data before the first table chunk lands.
		if err := in.conn.Send(&lmonp.Msg{Class: prof.class, Type: lmonp.TypeHandshake, UsrData: r.feData}); err != nil {
			return fmt.Errorf("core: handshake to %s master: %w", prof.kind, err)
		}
		r.conn = in.conn
		return r.flush()
	case in.msg.Type == lmonp.TypeStatus && r.asked: // the master's answer: whom it still waits on
		return fmt.Errorf("%w: %s", r.expired(), lmonp.NewReader(in.msg.Payload).String())
	case in.msg.Type == lmonp.TypeStatus: // the master's own init failed
		return fmt.Errorf("core: %s master daemon: %s", prof.kind, lmonp.NewReader(in.msg.Payload).String())
	case in.msg.Class != prof.class || in.msg.Type != lmonp.TypeReady:
		return fmt.Errorf("core: awaiting %s master ready: got %v/%v", prof.kind, in.msg.Class, in.msg.Type)
	default:
		r.tl.Mark(prof.marks.Ready, s.p.Sim().Now())
		infos, masterTL, obsBlob, err := decodeReady(in.msg.Payload)
		if err != nil {
			return err
		}
		r.tl.Merge(masterTL)
		// Stashed in arrival order: the master's finalize-time harvest may
		// be right behind.
		s.stashObsHarvest(prof.kind, obsBlob)
		r.infos, r.done = infos, true
		r.span.End()
		r.span = nil
	}
	return nil
}

// launchSeed takes the engine's chunk stream and spawn status into the
// FE's own table copy and feeds every chunk to the BE seed relay. Under
// cut-through the relay is open from the start — the master daemon is
// accepted, handshaken and forwarded to while the engine is still
// streaming, so the FE never waits for the full table before forwarding
// and never retransmits it. Under store-forward (the serialized Figure 2
// chain the §4 model decomposes) it is the same relay started late: only
// once table and status are both in is the master accepted and the queue
// played back — the engine's own chunks, which are the chunks re-encoding
// the finished table would produce (proctab.ChunkWriter is deterministic
// in entry order and bound). No chunk is forwarded before the FE's own
// assembler has accepted it.
func (s *Session) launchSeed(opts Options, relay *seedRelay) error {
	started := opts.SeedMode != SeedStoreForward
	if started {
		relay.start()
	}
	var asm proctab.Assembler
	var engTL engine.Timeline
	tabDone, statusDone := false, false
	for !tabDone || !statusDone || !relay.done {
		if tabDone && statusDone && !started {
			relay.start()
			started = true
		}
		in, err := relay.next()
		if err != nil {
			return err
		}
		if in.fab != nil {
			if err := relay.input(in); err != nil {
				return err
			}
			continue
		}
		if in.err != nil {
			return in.err
		}
		msg := in.msg
		switch msg.Type {
		case lmonp.TypeProctabChunk:
			if tabDone {
				return fmt.Errorf("core: RPDTAB chunk after end marker")
			}
			if err := asm.Add(msg.Payload); err != nil {
				return err
			}
			if err := relay.forward(msg.Type, msg.Payload); err != nil {
				return err
			}
		case lmonp.TypeProctabEnd:
			if tabDone {
				return fmt.Errorf("core: duplicate RPDTAB end marker")
			}
			tab, err := asm.FinishMarker(msg.Payload)
			if err != nil {
				return fmt.Errorf("core: RPDTAB stream at FE: %w", err)
			}
			// Publish the shared index before relaying the end marker:
			// every daemon's seed drain completes only after this marker
			// flows through the tree, so the index is visible by the
			// time any daemon (or the tool code above it) consults it.
			if err := s.adoptTable(tab); err != nil {
				return err
			}
			if err := relay.forward(msg.Type, msg.Payload); err != nil {
				return err
			}
			tabDone = true
		case lmonp.TypeStatus:
			status, tl, err := engine.DecodeStatus(msg.Payload)
			if err != nil {
				return err
			}
			if status != "daemons-spawned" {
				return fmt.Errorf("core: engine failed: %s", status)
			}
			engTL = tl
			statusDone = true
			// K: one daemon a node (attached, the task count bounds it).
			relay.arm(len(s.tab)/max(opts.Job.TasksPerNode, 1), opts.ICCLFanout, opts.SeedMode)
		default:
			return fmt.Errorf("core: unexpected %v message during launch", msg.Type)
		}
	}
	s.Timeline.Merge(engTL)
	s.Timeline.Merge(relay.tl)
	return nil
}
