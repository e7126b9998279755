package core

import (
	"errors"
	"fmt"

	"launchmon/internal/health"
	"launchmon/internal/iccl"
	"launchmon/internal/lmonp"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// This file is the front-end session as one state machine (the table is in
// DESIGN.md "Status callbacks and reaction"). A session holds no goroutine:
// the engine connection and each master connection carry one handler from
// accept to close that only routes (onLink), the calls that block —
// LaunchAndSpawn, LaunchMW, Detach, Kill — block on one Chan of feIn each
// and decode on their own goroutine, and step is the only writer of the
// state behind Session.mu.

// sessState is the session's lifecycle. The zero value never leaves
// launching unless it is the session LaunchAndSpawn is working on.
type sessState uint8

const (
	stLaunching sessState = iota
	stReady
	stEnding // the engine has the session's last request; Session.cause says whose
	stEnded
)

// fabState is one daemon fabric's share of it: down until a launch path
// claims it, launching while that call relays the seed (feFabric.launch),
// up once the master reported ready.
type fabState uint8

const (
	fabDown fabState = iota
	fabLaunching
	fabUp
)

// feIn is one input to a blocked call: a connection the mux handed over, a
// message off it, or the error that ended it (or kept it from coming).
type feIn struct {
	fab  *feFabric // whose master connection; nil = the engine's
	conn *lmonp.Conn
	msg  *lmonp.Msg
	err  error
}

type inKind uint8

const (
	inClaim    inKind = iota // a launch path wants the fabric: down → launching
	inConn                   // the mux handed over a connection, or gave up waiting
	inLaunched               // the launch path returned: launching → up, or down again on an error
	inConnEnd                // a connection ended
	inEvent                  // a status event came off one
	inEnd                    // Detach or Kill (req)
	inEnded                  // the ending request was answered, or never will be
	inRegister               // RegisterStatusCB
)

// input is one thing that happens to a session.
type input struct {
	kind  inKind
	fab   *feFabric // the fabric concerned; nil = the engine link
	relay *seedRelay
	conn  *lmonp.Conn
	err   error
	ev    health.Event
	cb    func(health.Event)
	req   lmonp.MsgType

	// Filled by step:
	reply  *vtime.Chan[feIn] // inEnd: where the engine's answer will arrive
	replay []health.Event    // inRegister on an ended session: its whole, final history
}

// step is the session's transition function: every state change, from
// whichever goroutine or scheduler callback, is a call of it. Nothing in
// it blocks.
func (s *Session) step(in *input) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fab := in.fab
	switch in.kind {
	case inClaim:
		if fab.prof.mw && s.state != stReady {
			return ErrSessionClosed
		}
		if fab.st != fabDown {
			return fmt.Errorf("core: session %d already has middleware daemons", s.ID)
		}
		in.relay.in = vtime.NewChan[feIn](s.p.Sim())
		fab.st, fab.launch = fabLaunching, in.relay
		fab.pl = iccl.NewFrontEnd(s.p, "front end of the "+fab.prof.kind+" fabric")
		fab.rx = newRxStreams(s.p.Sim(), fab.pre()+"master daemon", fab.pl, s.obsReg)

	case inConn:
		relay := s.be.launch // the engine dials during the BE fabric's launch
		if fab != nil {
			relay = fab.launch
		}
		if in.err == nil {
			var rx *rxStreams
			if fab == nil {
				s.eng = in.conn
			} else {
				fab.conn, rx = in.conn, fab.rx
			}
			in.conn.Handle(s.onLink(fab, in.conn, rx, relay.in))
		}
		relay.in.Send(feIn{fab: fab, conn: in.conn, err: in.err})

	case inLaunched:
		err := in.err
		switch {
		case err != nil:
		case fab.prof.mw && s.state != stReady:
			err = s.closedErrLocked()
		case s.fault != "":
			// Noted while the launching call was not listening: it charges
			// its finish cost after the master's ready.
			err = fmt.Errorf("core: session %d: %s before the launch completed", s.ID, s.fault)
		}
		if err == nil {
			fab.st, fab.infos, fab.launch = fabUp, fab.launch.infos, nil
			if !fab.prof.mw {
				s.state = stReady
				s.emitLocked(health.Event{Kind: health.EvDaemonsSpawned, Rank: -1})
			}
			return nil
		}
		// Withdrawing the hand-off and closing the connection is what the
		// master — and with it the whole daemon tree — needs to stop
		// waiting on a launch nobody is driving.
		s.ep.Unhandle(fab.prof.role)
		if fab.conn != nil {
			fab.conn.Close()
		}
		fab.st, fab.launch, fab.conn = fabDown, nil, nil
		if !fab.prof.mw {
			s.endedLocked()
		}
		return err

	case inConnEnd:
		severed := errors.Is(in.err, simnet.ErrPeerDead)
		if fab == nil {
			s.engGone = true
			for _, r := range s.replies {
				r.Close()
			}
			s.replies = nil
			// Only a severed link (the engine's host died) is a fault; a
			// clean EOF is the engine exiting after detach/kill.
			if severed {
				s.faultLocked("engine connection lost", "engine connection lost")
			}
			return nil
		}
		if in.conn != fab.conn {
			return nil // a released launch attempt's connection
		}
		// A clean EOF is the master daemon finalizing (tools may leave the
		// session at any time); only a severed link — the master's node
		// died — is a fault, and only once the fabric is part of the
		// session: a failed LaunchMW leaves the session as it was. The
		// fault is noted before the queues fail so blocked receive and
		// collective callers wake to an error that says why.
		severed = severed && s.state < stEnding && (fab.st == fabUp || !fab.prof.mw)
		note := fab.pre() + "master daemon connection severed"
		if severed && s.fault == "" {
			s.fault = note
		}
		fab.rx.fail(s.closedErrLocked())
		if severed {
			if s.state == stReady {
				s.emitLocked(health.Event{Kind: health.EvDaemonExited, Rank: 0, Detail: note})
			}
			s.faultLocked(note, fab.pre()+"master daemon lost")
		}

	case inEvent:
		// SessionTornDown is terminal, and DaemonsSpawned comes first: the
		// history takes no event outside the two.
		if s.state == stReady || s.state == stEnding {
			s.emitLocked(in.ev)
		}
		switch in.ev.Kind {
		case health.EvJobExited:
			s.faultLocked("job exited", "job exited")
		case health.EvDaemonExited:
			detail := fmt.Sprintf("%sdaemon rank %d lost", fab.pre(), in.ev.Rank)
			s.faultLocked(detail, detail)
		}

	case inEnd:
		// A session that never finished launching is not transitionable:
		// Detach and Kill on it are no-ops, as on one already ending.
		if s.state != stReady {
			return ErrSessionClosed
		}
		verb := "detached"
		if in.req == lmonp.TypeKill {
			verb = "killed"
		}
		s.endingLocked(verb + " by tool")
		in.reply = vtime.NewChan[feIn](s.p.Sim())
		return s.requestLocked(&lmonp.Msg{Class: lmonp.ClassFEEngine, Type: in.req}, in.reply)

	case inEnded:
		if s.state == stEnding {
			s.emitLocked(health.Event{Kind: health.EvSessionTornDown, Rank: -1, Detail: s.cause})
			s.endedLocked()
		}

	case inRegister:
		switch s.state {
		case stLaunching: // never established: no event will ever fire
		case stEnded:
			in.replay = s.evLog
		default:
			s.cbs = append(s.cbs, in.cb)
			s.deliverLocked([]func(health.Event){in.cb}, s.evLog)
		}
	}
	return nil
}

// faultLocked reacts to a fatal fault. The first one names the cause (note:
// what receive paths report, see closedErr) and, on a ready session, starts
// the teardown: a best-effort kill of job and daemons through the engine,
// whose answer — or loss — ends the session. A session the tool already
// ended has no fault to report: late events from the dying daemons must not
// turn a clean Detach/Kill into a "torn down" error.
func (s *Session) faultLocked(note, detail string) {
	if s.state >= stEnding {
		return
	}
	if s.fault == "" {
		s.fault = note
	}
	if s.state == stLaunching {
		// The launch fails: now if its call is listening, else at inUp.
		s.be.launch.in.Send(feIn{err: fmt.Errorf("core: session %d: %s", s.ID, detail)})
		return
	}
	s.endingLocked("watchdog: " + detail)
	wd := vtime.NewChan[feIn](s.p.Sim())
	wd.Handle(func(feIn, bool) {
		wd.Unhandle()
		s.step(&input{kind: inEnded})
	})
	if s.requestLocked(&lmonp.Msg{Class: lmonp.ClassFEEngine, Type: lmonp.TypeKill}, wd) != nil {
		wd.Close() // the engine is gone
	}
}

// endingLocked enters stEnding: from here the data plane reports the
// session over, and blocked receive and collective callers wake with the
// first cause.
func (s *Session) endingLocked(cause string) {
	s.state, s.cause = stEnding, cause
	err := s.closedErrLocked()
	for _, fab := range []*feFabric{&s.be, &s.mw} {
		if fab.rx != nil {
			fab.rx.fail(err)
		}
	}
}

// endedLocked enters stEnded, releasing every connection and the mux
// endpoint; the history is final.
func (s *Session) endedLocked() {
	s.state, s.cbs = stEnded, nil
	dropSharedSeg(s.ID)
	for _, c := range []*lmonp.Conn{s.eng, s.be.conn, s.mw.conn} {
		if c != nil {
			c.Close()
		}
	}
	s.ep.Close()
}

// emitLocked appends ev to the session's history and delivers it to the
// callbacks registered so far.
func (s *Session) emitLocked(ev health.Event) {
	s.evLog = append(s.evLog, ev)
	s.deliverLocked(s.cbs, s.evLog[len(s.evLog)-1:])
}

// deliverLocked runs cbs over evs as one scheduler event, so callbacks
// never run concurrently with each other or with the session's handlers,
// and each sees the history in order: what was emitted before it
// registered as replay, everything after as it is emitted. Later appends
// to either slice leave what is passed here untouched.
func (s *Session) deliverLocked(cbs []func(health.Event), evs []health.Event) {
	if len(cbs) == 0 || len(evs) == 0 {
		return
	}
	s.p.Sim().After(0, func() {
		for _, ev := range evs {
			for _, cb := range cbs {
				cb(ev)
			}
		}
	})
}

// requestLocked sends the engine a request whose TypeStatus answer will go
// to reply. The engine answers in request order, so the pending replies
// are a FIFO — and a reply whose waiter gave up stays in it, to take the
// late answer that would otherwise be handed to the next request.
func (s *Session) requestLocked(m *lmonp.Msg, reply *vtime.Chan[feIn]) error {
	if s.engGone {
		return s.engineErr("connection lost")
	}
	if err := s.eng.Send(m); err != nil {
		return s.engineErr("connection lost")
	}
	s.replies = append(s.replies, reply)
	return nil
}

// engineErr is what a call reports when the engine's answer will not come.
func (s *Session) engineErr(what string) error {
	return fmt.Errorf("core: session %d: engine %s", s.ID, what)
}

func (s *Session) request(m *lmonp.Msg, reply *vtime.Chan[feIn]) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requestLocked(m, reply)
}

// onLink is the handler of the engine connection (fab and rx nil) or a
// master connection, from accept to close, bound to the launch attempt
// that accepted it: rx is that attempt's receive side and in its call's
// Chan — closed when the call returns — so what a released attempt's
// connection still delivers reaches nobody.
func (s *Session) onLink(fab *feFabric, conn *lmonp.Conn, rx *rxStreams, in *vtime.Chan[feIn]) func(*lmonp.Msg, error) {
	return func(msg *lmonp.Msg, err error) {
		switch {
		case err != nil:
			lost := err
			if fab == nil {
				lost = s.engineErr("connection lost")
			}
			in.Send(feIn{fab: fab, err: lost})
			s.step(&input{kind: inConnEnd, fab: fab, conn: conn, err: err})
		case rx != nil && rx.sort(msg): // tool data, collective frames
		case fab == nil && msg.Type == lmonp.TypeStatus:
			s.mu.Lock()
			var reply *vtime.Chan[feIn]
			if len(s.replies) > 0 {
				reply, s.replies[0] = s.replies[0], nil
				s.replies = s.replies[1:]
			}
			s.mu.Unlock()
			if reply != nil {
				reply.Send(feIn{msg: msg})
			}
		case fab != nil && msg.Type == lmonp.TypeObsMetrics:
			// The finalize-time harvest: a cumulative fabric-wide snapshot
			// folded up the tree and pushed by the master before it closes.
			s.stashObsHarvest(fab.prof.kind, msg.Payload)
		case msg.Type == lmonp.TypeStatusEvent:
			// Job exit from the engine, daemon loss from the health
			// subsystem at a master.
			ev, err := health.DecodeEvent(msg.Payload)
			if err != nil {
				return
			}
			pre := fab.pre()
			if pre != "" {
				ev.Detail = pre + "fabric: " + ev.Detail
			}
			s.obsInstant(pre + "event:" + ev.Kind.String())
			s.step(&input{kind: inEvent, fab: fab, ev: ev})
		default: // table chunks, a master's ready: for the launching call to judge
			in.Send(feIn{fab: fab, msg: msg})
		}
	}
}
