package core

import (
	"fmt"

	"launchmon/internal/engine"
	"launchmon/internal/lmonp"
	"launchmon/internal/proctab"
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

// seedItem is one unit of the FE→master relay: the payload of an RPDTAB
// chunk message, or (end) of the end marker closing the stream
// (proctab.EncodeEndMarker: entry count + rolling chunk digest).
type seedItem struct {
	payload []byte
	end     bool
}

// relayResult is what the seed-relay goroutine hands back to the launch
// path: the established master connection, the decoded ready message, and
// the relay's share of the timeline (e7, e10, overlap marks).
type relayResult struct {
	conn    *lmonp.Conn
	infos   []DaemonInfo
	tl      engine.Timeline
	obsBlob []byte // harvested metrics snapshot off the ready message
	err     error
}

// seedRelay accepts a fabric's master-daemon connection and forwards the
// seed stream to it, concurrently with whatever the launch path is doing
// (draining the engine chunk stream on the BE fabric, awaiting the MW
// spawn status on the MW fabric). The fabric profile selects the LMONP
// class, the transport role, and which timeline marks the relay stamps.
type seedRelay struct {
	s      *Session
	fab    fabricProfile
	feData []byte
	items  *vtime.Chan[seedItem]
	result *vtime.Chan[relayResult]

	markAccept, markFwd, markReady string
}

// newSeedRelay builds a relay for the given fabric with its mark names.
func newSeedRelay(s *Session, fab fabricProfile, feData []byte, markAccept, markFwd, markReady string) *seedRelay {
	sim := s.p.Sim()
	return &seedRelay{
		s: s, fab: fab, feData: feData,
		items:      vtime.NewChan[seedItem](sim),
		result:     vtime.NewChan[relayResult](sim),
		markAccept: markAccept, markFwd: markFwd, markReady: markReady,
	}
}

// abandon gives up on the relay after a launch-side error. Closing the
// item queue wakes a relay parked on it and stops further forwarding: the
// relay checks the queue's closed flag before each item, so even a
// pre-fed queue (the MW path queues its end marker up front) stops
// streaming to a stale dial — queued values surviving Close would
// otherwise keep the stream flowing. A relay parked in Endpoint.Accept is
// released by the caller closing the session (s.close closes the
// endpoint). One already past its end marker is parked awaiting the
// master's ready and would hand back an open connection nobody reads —
// leaving the master (and with it the whole daemon tree) waiting on the
// session forever — so a reaper drains the result, closes that
// connection, and only then runs then (nil for none).
func (r *seedRelay) abandon(then func()) {
	r.items.Close()
	r.s.p.Sim().Go(fmt.Sprintf("fe-sess-%d-%s-relay-reaper", r.s.ID, r.fab.kind), func() {
		if res, ok := r.result.Recv(); ok && res.conn != nil {
			res.conn.Close()
		}
		if then != nil {
			then()
		}
	})
}

func (r *seedRelay) run() {
	res := r.relay()
	if res.err != nil && res.conn != nil {
		res.conn.Close()
		res.conn = nil
	}
	r.result.Send(res)
}

func (r *seedRelay) relay() relayResult {
	s := r.s
	sim := s.p.Sim()
	sp := s.obsRec.Start("seed-relay-"+r.fab.kind, -1)
	defer sp.End()
	relayChunks := s.obsCounter("fe.relay.chunks")
	relayBytes := s.obsCounter("fe.relay.bytes")
	conn, err := s.ep.Accept(r.fab.role, s.timeout)
	if err != nil {
		return relayResult{err: fmt.Errorf("core: %s master daemon did not connect: %w", r.fab.kind, err)}
	}
	var tl engine.Timeline
	tl.Mark(r.markAccept, sim.Now())
	// FEData rides the handshake ahead of the proctab stream, so every
	// daemon has its bootstrap data before the first table chunk lands.
	if err := conn.Send(&lmonp.Msg{Class: r.fab.class, Type: lmonp.TypeHandshake, UsrData: r.feData}); err != nil {
		return relayResult{conn: conn, err: fmt.Errorf("core: handshake to %s master: %w", r.fab.kind, err)}
	}
	first := true
	for {
		it, ok := r.items.Recv()
		if !ok || r.items.Closed() {
			return relayResult{conn: conn, err: fmt.Errorf("core: session %d: seed relay aborted", s.ID)}
		}
		if first {
			tl.Mark(r.markFwd, sim.Now())
			first = false
		}
		typ := lmonp.TypeProctabEnd
		if !it.end {
			typ = lmonp.TypeProctabChunk
			relayChunks.Inc()
			relayBytes.Add(uint64(len(it.payload)))
		}
		if err := conn.Send(&lmonp.Msg{Class: r.fab.class, Type: typ, Payload: it.payload}); err != nil {
			return relayResult{conn: conn, err: fmt.Errorf("core: relaying session seed to %s master: %w", r.fab.kind, err)}
		}
		if it.end {
			break
		}
	}
	ready, err := conn.Expect(r.fab.class, lmonp.TypeReady)
	if err != nil {
		return relayResult{conn: conn, err: fmt.Errorf("core: awaiting %s master ready: %w", r.fab.kind, err)}
	}
	tl.Mark(r.markReady, sim.Now())
	infos, masterTL, obsBlob, err := decodeReady(ready.Payload)
	if err != nil {
		return relayResult{conn: conn, err: err}
	}
	tl.Merge(masterTL)
	return relayResult{conn: conn, infos: infos, tl: tl, obsBlob: obsBlob}
}

// launchSeed drains the engine's chunk stream and spawn status into the
// FE's own table copy and feeds every chunk to the BE seed relay. Under
// cut-through the relay runs concurrently from the start — it accepts the
// master daemon, handshakes and forwards while the engine is still
// streaming, so the FE never waits for the full table before forwarding
// and never retransmits it. Under store-forward (the serialized Figure 2
// chain the §4 model decomposes) the relay runs only once table and
// status are both in: it accepts the master then and plays back the
// queued chunks — the engine's own, which are the chunks re-encoding the
// finished table would produce (proctab.ChunkWriter is deterministic in
// entry order and bound).
func (s *Session) launchSeed(opts Options) error {
	sim := s.p.Sim()
	relay := newSeedRelay(s, beFabric, opts.FEData,
		engine.MarkE7, engine.MarkSeedFwd, engine.MarkE10)
	cut := opts.SeedMode != SeedStoreForward
	if cut {
		sim.Go(fmt.Sprintf("fe-sess-%d-seed-relay", s.ID), relay.run)
	}
	// fail gives up on an engine-side error; a relay that never started
	// has nothing to reap.
	fail := func(err error) error {
		if cut {
			relay.abandon(nil)
		}
		return err
	}

	var asm proctab.Assembler
	var engTL engine.Timeline
	tabDone, statusDone := false, false
	for !tabDone || !statusDone {
		msg, err := s.eng.Recv()
		if err != nil {
			return fail(err)
		}
		switch msg.Type {
		case lmonp.TypeProctabChunk:
			if tabDone {
				return fail(fmt.Errorf("core: RPDTAB chunk after end marker"))
			}
			if err := asm.Add(msg.Payload); err != nil {
				return fail(err)
			}
			relay.items.Send(seedItem{payload: msg.Payload})
		case lmonp.TypeProctabEnd:
			if tabDone {
				return fail(fmt.Errorf("core: duplicate RPDTAB end marker"))
			}
			tab, err := asm.FinishMarker(msg.Payload)
			if err != nil {
				return fail(fmt.Errorf("core: RPDTAB stream at FE: %w", err))
			}
			// Publish the shared index before relaying the end marker:
			// every daemon's seed drain completes only after this marker
			// flows through the tree, so the index is visible by the
			// time any daemon (or the tool code above it) consults it.
			if err := s.adoptTable(tab); err != nil {
				return fail(err)
			}
			relay.items.Send(seedItem{payload: msg.Payload, end: true})
			tabDone = true
		case lmonp.TypeStatus:
			status, tl, err := engine.DecodeStatus(msg.Payload)
			if err != nil {
				return fail(err)
			}
			if status != "daemons-spawned" {
				return fail(fmt.Errorf("core: engine failed: %s", status))
			}
			engTL = tl
			statusDone = true
		default:
			return fail(fmt.Errorf("core: unexpected %v message during launch", msg.Type))
		}
	}
	s.Timeline.Merge(engTL)
	if !cut {
		relay.run()
	}

	res, ok := relay.result.Recv()
	if !ok {
		return fmt.Errorf("core: session %d: seed relay lost", s.ID)
	}
	if res.err != nil {
		return res.err
	}
	s.be.conn = res.conn
	s.daemons = res.infos
	s.Timeline.Merge(res.tl)
	s.stashObsHarvest("BE", res.obsBlob)
	return nil
}
