package iccl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/obs"
	"launchmon/internal/proctab"
	"launchmon/internal/simnet"
)

// This file is a forming rank's record: everything a daemon does from its
// dial to its ready — the dial and join, the child accepts, the ready wave,
// the seed (the cut-through stream, seed.go, or store-forward's broadcast),
// the ready gather and the fold behind it — carried on the scheduler, the way
// planeOp carries a collective. Its timers are the goroutine's sleeps and
// charges, and a link it reads wakes it where a goroutine parked on the link
// would have run (vtime.Chan.Await), so a launch fires the events a goroutine
// blocked in each phase fired, in the same (at, seq) order, while the
// daemon's goroutine waits once. Its tree reader, and the ready wave,
// broadcast, gather and fold, are its walk's (walk.go).

// Ready is a forming rank's owner. The record calls it on the scheduler (or
// on the rank's goroutine before it waits), in this order, as the rank goes
// from its join to its ready; an error it returns fails the rank.
type Ready interface {
	// Formed: the tree below the rank has formed (at the root, e9).
	Formed(c *Comm)
	// Seeded: the rank's seed is in — its share of the stream validated,
	// or store-forward's broadcast (blob) received. It returns the rank's
	// contribution to the ready gather.
	Seeded(blob []byte) (mine []byte, err error)
	// Gathered is handed the ready gather — every rank's contribution by
	// rank at the root, nil elsewhere — and returns the rank's contribution
	// to a fold up the same links, nil for none.
	Gathered(all [][]byte) (fold []byte, err error)
	// Combine folds next into acc (nil on the first call), as FoldUp's.
	Combine(acc, next []byte) ([]byte, error)
	// Folded is handed the fold (the root's; nil elsewhere, or without
	// one): the rank is ready.
	Folded(acc []byte) error
}

// phase is what a forming rank does next.
type phase uint8

const (
	phSkew     phase = iota // rank > 0: the sibling's dial skew
	phDial                  // a dial attempt; slot counts them
	phJoin                  // the parent link is up: the join goes out
	phAccept                // child slot's connection
	phJoinRead              // its join
	phReady                 // its walk: the ready wave
	phSeed                  // the seed stream's end
	phWalk                  // its walk: store-forward's broadcast, the ready gather, the fold
)

// Forming is one rank's record from its dial to its ready. Scheduler
// callbacks carry it on — its own timers, the wakes of the link it reads, the
// seed stream's frames — and never overlap; the rank's goroutine runs it,
// waits on it once (wait), and takes the communicator or the error. The
// record is dropped at ready.
type Forming struct {
	walk
	nodes []string      // Config.Nodelist
	port  int           // Config.Port
	reg   *obs.Registry // Config.Metrics
	r     Ready         // nil: the rank stops at formed, or with a seed stream at its end
	conn  *simnet.Conn  // the link being dialed; an accepted child's, join unread

	// The cut-through seed stream (seed.go), when router is set. held keeps
	// each child's messages, routed before its join was accepted, for
	// onChild to write; sent counts the bytes written to each child's link;
	// entered the seed bytes that entered the tree here (the root).
	router  seedRoute
	chk     coll.SeqCheck
	held    [][][]byte
	sent    []uint64
	entered uint64
	serr    error // the stream's first error

	phase phase
	done  bool
	// shared marks the rank's share finished: its End handed to the sink
	// (every child's End is written before it), or the stream failed.
	shared bool
	// watched marks the parent link handed back, its end watched for, when
	// the seed's End arrived while the rank formed.
	watched bool
}

// NewForming makes rank cfg.Rank's record, which Run runs: the rank joins
// its parent, takes its children's joins and its subtree's ready wave, and r,
// when set, carries it on through its seed and ready gather to its ready.
//
// With rt set the cut-through session seed streams through the forming tree,
// every rank routing it with rt: sink is handed the rank's share — the FEData
// frame, the chunks of its slice of the RPDTAB, each with c its scan, then the
// End frame whose Total is the slice's entry count — on the scheduler as each
// is routed (a childless rank's as it arrived), and children receive freshly
// packed streams covering exactly their subtrees. A table-less stream's
// router need own no host. sink must not block; an error it returns fails the
// stream. Rank 0 is fed its stream (Feed); every other rank's comes down its
// parent link. Observability goes to cfg.Metrics (nil: nowhere):
// seed.link.bytes.max is the peak per-link forwarded byte count across the
// whole tree once harvested — the measured quantity behind the O(table/K ·
// subtree) per-link claim of rank-sliced routing.
func NewForming(p *cluster.Proc, cfg Config, rt *SeedRouter, sink func(f coll.Frame, c proctab.Chunk) error, r Ready) *Forming {
	cfg = cfg.withDefaults()
	f := &Forming{nodes: cfg.Nodelist, port: cfg.Port, reg: cfg.Metrics, r: r}
	f.c = &Comm{p: p, rank: cfg.Rank, size: cfg.Size, fanout: cfg.Fanout}
	if rt == nil {
		return f
	}
	kids := childCount(cfg.Rank, cfg.Size, cfg.Fanout)
	f.held, f.sent = make([][][]byte, kids), make([]uint64, kids)
	for _, name := range [...]string{"seed.fwd.chunks", "seed.fwd.bytes"} {
		f.reg.Counter(name) // every rank's snapshot names them
	}
	for _, name := range [...]string{"seed.link.bytes.max", "seed.queue.depth.max", "seed.src.bytes"} {
		f.reg.Gauge(name)
	}
	if kids > 0 {
		f.router = newSeedSplitter(rt, cfg, sink, f)
	} else {
		leaf := &seedLeaf{sink: sink}
		leaf.init(rt, cfg, 0)
		f.router = leaf
	}
	return f
}

// Run runs the record on the rank's goroutine — seed is a store-forward
// root's broadcast — and waits for its ready: it returns once r reports the
// rank ready, without r once the rank has formed (and its seed stream, if
// any, has reached its sink). After a nil return the communicator's links
// carry no more seed traffic. A rank whose seed stream fails first fails its
// bootstrap with the stream's error; on a mid-stream link failure — a child's
// node dying while chunks are in flight — the affected forwarder records the
// stream's error, which the rank returns.
func (f *Forming) Run(seed []byte) (*Comm, error) {
	c := f.c
	f.bind(f)
	var err error
	switch {
	case c.size <= 0 || c.rank < 0 || c.rank >= c.size:
		err = fmt.Errorf("bad rank/size %d/%d", c.rank, c.size)
	case len(f.nodes) != c.size:
		err = fmt.Errorf("nodelist has %d entries for size %d", len(f.nodes), c.size)
	}
	if err == nil {
		c.bindMetrics(f.reg)
		c.p.AdoptConn(c) // a killed daemon's links die with it
		if childCount(c.rank, c.size, c.fanout) > 0 {
			c.l, err = c.p.Host().Listen(f.port)
		}
	}
	f.buf = seed
	if err != nil {
		f.failBoot(err, 0)
	} else {
		if c.rank == 0 {
			f.accept() // the root joins no parent
		}
		f.Fire()
	}
	return f.wait()
}

// wait is where the rank's goroutine waits for its record, once.
func (f *Forming) wait() (*Comm, error) {
	if !f.w.Wait() {
		return nil, fmt.Errorf("%w: simulation ended while rank %d formed", errBootstrap, f.c.rank)
	}
	if f.err != nil {
		return nil, f.err
	}
	return f.c, nil
}

// Fire goes on from a timer — the sibling skew, a redial, the handshake, a
// frame's charge — or a link's wake, until the record waits again or ends.
func (f *Forming) Fire() {
	for !f.done && f.step() {
	}
}

// step takes the phase one step; false when the record waits (or ended).
func (f *Forming) step() bool {
	c := f.c
	switch f.phase {
	case phSkew:
		// Sub-microsecond dial skew: siblings spawned at the same virtual
		// instant would otherwise tie their joins at the parent's listener,
		// served in seq order, and the parent's per-join handling cost
		// ladders whatever follows a join (the seed catch-up in particular).
		// One nanosecond per sibling slot serves them in rank order
		// (≤ fanout ns), the order every pin was taken with.
		f.phase = phDial
		f.reg.Counter("iccl.dial.retries") // every dialing rank's snapshot names it
		parent := Parent(c.rank, c.fanout)
		if slot := c.rank - (parent*c.fanout + 1); slot > 0 {
			f.after(time.Duration(slot))
			return false
		}
	case phDial:
		return f.dial()
	case phJoin:
		if err := c.send(f.conn, ctlFrame(opJoin, uint32(c.rank))); err != nil {
			return f.failBoot(fmt.Errorf("join: %v", err), 0)
		}
		c.parent, f.conn = f.conn, nil
		if f.router != nil {
			f.onParent(c.parent)
		}
		f.accept()
	case phAccept:
		if f.slot == len(c.children) {
			f.phase, f.op, f.slot, f.n = phReady, opReady, 0, 1
			return true
		}
		conn, wait, err := c.l.AwaitAccept(&f.resume)
		switch {
		case wait:
			return false
		case err != nil:
			return f.failBoot(fmt.Errorf("accept: %v", err), len(c.children))
		}
		f.conn, f.phase = conn, phJoinRead
	case phJoinRead:
		frame, ok, err := f.read(f.conn)
		if !ok {
			return false
		}
		body, err := c.opBody(opJoin, frame, err)
		if err != nil { // pinned on the child, found by its host
			return f.failBoot(pinOn(slices.Index(f.nodes, f.conn.Peer()), opJoin, err), len(c.children))
		}
		rk := int(binary.BigEndian.Uint32(body))
		slot := rk - c.childRank(0) // direct children are consecutive ranks
		if slot < 0 || slot >= len(c.children) || c.children[slot] != nil {
			return f.failBoot(fmt.Errorf("unexpected child rank %d", rk), len(c.children))
		}
		c.children[slot], f.conn = f.conn, nil
		if f.router != nil {
			f.onChild(slot)
		}
		f.phase = phAccept
		f.slot++
	case phSeed:
		return f.seedIn()
	case phReady, phWalk:
		return f.walk.step()
	}
	return true
}

// dial makes one attempt to connect upward; children race their parents
// coming up, so a parent not listening yet is redialed after DialRetry, for
// dialAttempts. Under fail-stop a dead host stays dead: that fails at once.
func (f *Forming) dial() bool {
	c := f.c
	parent := Parent(c.rank, c.fanout)
	if f.slot == dialAttempts {
		return f.failBoot(fmt.Errorf("dialing parent %d: %v", parent, f.err), 0)
	}
	// A killed process's record would otherwise keep dialing a parent that
	// may never come for the whole window.
	if c.p.State() == cluster.StateExited {
		return f.failBoot(fmt.Errorf("rank %d exited while dialing parent %d", c.rank, parent), 0)
	}
	conn, err := c.p.Host().DialAsync(simnet.Addr{Host: f.nodes[parent], Port: f.port}, f)
	switch {
	case err == nil:
		f.conn, f.phase = conn, phJoin
	case errors.Is(err, simnet.ErrPeerDead):
		return f.failBoot(fmt.Errorf("dialing parent %d: %v", parent, err), 0)
	default:
		f.reg.Counter("iccl.dial.retries").Inc()
		f.slot++
		f.err = err
		f.after(DialRetry)
	}
	return false
}

// accept makes the rank's parent link end the forming tree, and turns to the
// children's joins. A seed stream watches its own parent link (onParent).
func (f *Forming) accept() {
	c := f.c
	if f.router == nil {
		c.watchParent(true)
	}
	c.children = make([]*simnet.Conn, childCount(c.rank, c.size, c.fanout))
	f.phase, f.slot = phAccept, 0
}

// formed ends the bootstrap of a rank whose subtree is connected: its
// parent link is handed back, its listener closed, and the seed is next.
func (f *Forming) formed() bool {
	c := f.c
	if f.router == nil || f.watched {
		c.watchParent(false)
	}
	if c.l != nil {
		c.l.Close()
	}
	f.phase = phSeed
	if f.r != nil {
		f.r.Formed(c)
	}
	return true
}

// seedIn takes the rank's seed: it waits for the stream's share (which
// calls Fire), or under store-forward walks the broadcast down from the
// parent (the root's buf) to the children. A rank with an owner gathers next.
func (f *Forming) seedIn() bool {
	switch {
	case f.router != nil && !f.shared:
		return false
	case f.serr != nil:
		return f.finish(f.serr)
	case f.r == nil:
		return f.finish(nil)
	case f.router == nil:
		f.phase, f.op = phWalk, opBcast
		return true
	}
	return f.walked(opBcast, nil)
}

// walked goes on from each of the rank's walks: the ready wave is in, and
// the rank has formed, or its bootstrap failed at the child slot the wave
// ended on; the seed is in, and the rank's contribution starts the ready
// gather; the ready gather is in, and the rank's fold contribution, if it has
// one, starts the fold; the fold is in — the root's accumulator, nil
// elsewhere — and the rank is ready.
func (f *Forming) walked(op uint32, err error) bool {
	var mine []byte
	switch {
	case op == opReady && err == nil:
		return f.formed()
	case op == opReady:
		return f.failBoot(err, f.slot)
	case err != nil:
	case op == opBcast:
		mine, err = f.r.Seeded(f.buf)
		f.entries, f.buf = append(f.entries, coll.Entry{Rank: f.c.rank, Blob: mine}), nil
		f.phase, f.op, f.slot = phWalk, opGather, 0
	case op == opGather:
		if mine, err = f.r.Gathered(f.all); err == nil && mine != nil {
			f.buf, err = f.r.Combine(nil, mine)
			f.op, f.slot, f.combine = opFold, 0, f.r.Combine
		}
		f.all = nil
	}
	switch {
	case err != nil:
		return f.finish(err)
	case f.op != 0:
		return true
	}
	return f.finish(f.r.Folded(f.buf))
}

// failBoot ends a rank whose bootstrap failed with err, or with the seed
// stream's error when that tore the tree down first, naming the child
// subtrees it still waits on — no join, or from slot from on no ready
// delivered: it tells its parent, if it has joined one, and tears down what
// it formed (Abort). Its seed stream ends with it.
func (f *Forming) failBoot(err error, from int) bool {
	if f.serr != nil {
		err = f.serr
	}
	err = f.c.waitingOn(fmt.Errorf("%w: %w", errBootstrap, err), from, opReady)
	f.c.Abort(err)
	return f.finish(err)
}

// finish ends the record and wakes the rank's goroutine, which owns it from
// here: nothing touches it after the wake but a late wake or timer, which
// finds it done. A formed rank that fails tells its parent why and tears
// down what it formed (Abort), as a failed bootstrap does, so its parent's
// ready gather fails with that cause.
func (f *Forming) finish(err error) bool {
	if err != nil && f.phase >= phSeed {
		f.c.Abort(err)
	}
	f.done, f.err = true, err
	f.entries, f.buf, f.charged, f.combine = nil, nil, nil, nil
	f.w.Wake()
	return false
}

// End ends a rank before its ready with err — at the master, the front
// end's ask or its link's end — naming whom it waits on: the child subtrees
// whose join, or whose frame of the wave it walks, it has not taken, or its
// seed. A rank that is still forming fails its bootstrap. A rank past its
// ready ignores it. Call it from a scheduler callback.
func (f *Forming) End(err error) {
	op, from := f.op, f.slot
	if f.charged != nil {
		from++ // taken: its charge runs
	}
	switch {
	case f.done:
	case f.phase == phSeed || op == opBcast:
		f.finish(fmt.Errorf("iccl: seed at rank %d: %w; waiting on its share of the seed", f.c.rank, err))
	case f.phase < phSeed:
		if op == 0 {
			op = opJoin // its own, or its children's
		}
		f.failBoot(fmt.Errorf("iccl: %s at rank %d: %w", phases[op], f.c.rank, err), from)
	default:
		f.finish(f.c.waitingOn(fmt.Errorf("iccl: %s at rank %d: %w", phases[op], f.c.rank, err), from, op))
	}
}
