package core

import (
	"errors"
	"fmt"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/engine"
	"launchmon/internal/health"
	"launchmon/internal/iccl"
	"launchmon/internal/lmonp"
	"launchmon/internal/obs"
	"launchmon/internal/proctab"
	"launchmon/internal/simnet"
	"launchmon/internal/transport"
)

// This file is the fabric-agnostic daemon-side session core: everything a
// LaunchMON daemon does to join its session — master handshake, ICCL
// bootstrap with the cut-through seed stream (or the store-and-forward
// baseline), per-rank seed validation, the collective tool-data plane,
// the ready gather, and the heartbeat tree — is identical between the
// back-end and middleware fabrics up to a small profile (LMONP class,
// transport role, tree port band, timeline mark names). BEInit and MWInit
// are thin wrappers over initDaemon with their fabric's profile.

// fabricProfile names what differs between the two daemon fabrics.
type fabricProfile struct {
	kind string // diagnostic name: "BE" or "MW"
	mw   bool   // MW daemons own no tasks: empty rank slice, no seed router

	class lmonp.MsgClass
	role  transport.Role

	marks *engine.FabricMarks // by reference: every daemon's session holds a profile
}

var (
	beFabric = fabricProfile{
		kind: "BE", class: lmonp.ClassFEBE, role: transport.RoleBE, marks: &engine.BEMarks,
	}
	mwFabric = fabricProfile{
		kind: "MW", mw: true, class: lmonp.ClassFEMW, role: transport.RoleMW, marks: &engine.MWMarks,
	}
)

// daemonSession is the shared daemon-side state. BackEnd and Middleware
// embed it, so its exported methods are the common daemon API of both
// fabrics.
type daemonSession struct {
	p    *cluster.Proc
	fab  *fabricProfile // beFabric or mwFabric
	comm *iccl.Comm
	fe   *lmonp.Conn     // non-nil at the master only
	mon  *health.Monitor // nil when the session has no failure detection
	coll *iccl.Plane

	tab    proctab.Table  // full table (store-forward only; nil under cut-through)
	myTab  proctab.Table  // RPDTAB entries on this daemon's node (empty on MW nodes)
	seg    *sessionShared // session-shared segment holding the index (cut-through only)
	feData []byte
	tl     engine.Timeline

	feRx *rxStreams // the master's sorted FE connection (readying.Seeded)

	// obsReg is the daemon's observability registry (nil when LMON_OBS is
	// off). Its snapshot is tree-folded to the master and rides the ready
	// message; Finalize harvests once more, best-effort, for counters that
	// only move after launch (collectives, health).
	obsReg *obs.Registry
}

// initDaemon joins the calling daemon process into its session over the
// given fabric: the master completes the LMONP handshake with the front
// end, the ICCL tree bootstraps, the session seed (RPDTAB + FEData) is
// distributed to and validated at every daemon, and per-daemon info is
// gathered to the master for the ready message. Under the default
// cut-through pipeline the seed streams through the forming tree; the BE
// store-forward baseline (selected by LMON_SEED_MODE) buffers it at the
// master and broadcasts after bootstrap. From its dial to its ready the
// daemon is one iccl.Forming record on the scheduler, which readying
// carries through the seed and the ready gather; the daemon's goroutine
// waits on it once, then joins the heartbeat tree.
func initDaemon(p *cluster.Proc, fab *fabricProfile) (*daemonSession, error) {
	env, err := parseBootEnv(p)
	if err != nil {
		return nil, err
	}
	if env.obs.enabled() {
		env.tree.Metrics = obs.NewRegistry()
	}
	d := &daemonSession{p: p, fab: fab, obsReg: env.tree.Metrics}
	if err = d.form(env); err == nil {
		// Join the fabric's heartbeat tree when the front end enabled
		// failure detection; the master forwards failure reports upstream
		// as LMONP status events. Started after the ready message so the
		// launch critical path is not charged for it.
		if err = d.startHealth(env); err != nil {
			d.comm.Abort(err) // as the record does for a failure before ready
		}
	}
	if err != nil {
		// A failed master tells its FE why.
		if d.fe != nil {
			d.fe.Send(&lmonp.Msg{Class: d.fab.class, Type: lmonp.TypeStatus, Payload: lmonp.AppendString(nil, err.Error())})
			d.fe.Close()
		}
		return nil, err
	}
	return d, nil
}

// form runs the daemon's Forming record. Under cut-through the session seed
// streams through the still-forming tree: every rank reassembles its rank
// slice with a proctab.Assembler and validates it (FinishSlice) before
// contributing to the ready gather, so the ready message at the front end
// implies a validated slice at every daemon of the fabric. Under
// store-forward — the serialized baseline the paper's broadcast-vs-shared-file
// ablation measures — the master buffers the full chunk-streamed RPDTAB from
// the FE, the tree bootstraps, and the seed goes out as one monolithic ICCL
// broadcast; the master keeps its already-decoded table instead of decoding
// its own broadcast.
func (d *daemonSession) form(env *bootEnv) error {
	cut := env.seedMode != SeedStoreForward
	var rt *iccl.SeedRouter
	var sink func(coll.Frame, proctab.Chunk) error
	if cut {
		rt, sink = d.seedRouter(env), d.seedSink()
	}
	var seed []byte
	f := iccl.NewForming(d.p, env.tree, rt, sink, &readying{d: d, env: env})
	if env.tree.Rank == 0 {
		feData, err := d.masterHandshake(env)
		if err != nil {
			return err
		}
		if !cut {
			if d.tab, err = proctab.RecvStream(d.fe, d.fab.class); err != nil {
				return err
			}
			d.feData = append([]byte(nil), feData...)
			seed = lmonp.AppendBytes(lmonp.AppendBytes(nil, d.tab.Encode()), feData)
		}
		d.watchFE(f, cut, feData)
	}
	_, err := f.Run(seed)
	return err
}

// seedSink takes this rank's share of the stream on the scheduler: frame 0
// carries the piggybacked FEData, later frames the rank slice's RPDTAB
// chunks, already validated and scanned chunk by chunk, which the assembler
// keeps as they are; the end marker's total validates the reassembly.
func (d *daemonSession) seedSink() func(coll.Frame, proctab.Chunk) error {
	var asm proctab.Assembler
	return func(f coll.Frame, c proctab.Chunk) (err error) {
		switch {
		case f.End:
			d.myTab, err = asm.FinishSlice(int(f.Total))
		case f.H.Index == 0:
			d.feData = append([]byte(nil), f.Body...)
		default:
			asm.AddScanned(c)
		}
		return err
	}
}

// seedRouter attaches the session-shared segment and builds the
// rank-sliced retention router: BE daemons route the seed so each keeps
// only its own slice, consulting the session-shared host→rank map; MW
// daemons receive a table-less stream (their slice is empty by
// construction) and read the table, when they need it, from the same
// shared index.
func (d *daemonSession) seedRouter(env *bootEnv) *iccl.SeedRouter {
	d.seg = sharedSegFor(env.session)
	if d.fab.mw {
		return iccl.TablelessRoute
	}
	ranks := d.seg.hostRanks(env.tree.Nodelist)
	return &iccl.SeedRouter{
		RankOf: func(host string) (int, bool) {
			r, ok := ranks[host]
			return r, ok
		},
		ChunkBytes: env.proctabChunk,
	}
}

// masterHandshake connects the master to its front end's transport mux —
// announcing the session and role so the mux routes the connection to the
// owning session — and consumes the handshake, returning the piggybacked
// tool data that arrives ahead of the table stream.
func (d *daemonSession) masterHandshake(env *bootEnv) ([]byte, error) {
	feAddr, err := simnet.ParseAddr(env.feAddr)
	if err != nil {
		return nil, err
	}
	if d.fe, err = transport.Dial(d.p.Host(), feAddr, env.session, d.fab.role); err != nil {
		return nil, fmt.Errorf("core: %s master dialing FE: %w", d.fab.kind, err)
	}
	d.p.AdoptConn(d.fe)
	handshake, err := d.fe.Expect(d.fab.class, lmonp.TypeHandshake)
	if err != nil {
		return nil, err
	}
	d.tl.Mark(d.fab.marks.NetStart, d.p.Sim().Now())
	return handshake.UsrData, nil
}

// watchFE installs the master's one handler on its FE connection, from the
// handshake — under store-forward, the table stream's end — to its close.
// While the tree forms it feeds f the cut-through seed: a synthesized frame 0
// with the handshake's FEData, its own zero-delay event scheduled ahead of the
// connection's first delivery, then one frame per relayed RPDTAB chunk,
// closed by the relay's end marker. Chunk sums are computed here (the LMONP
// relay ships bare payloads); the end marker's digest arrives from the FE, so
// the master's stream check covers the whole engine→FE→master path. The
// front end's ask or the connection's end ends f (Forming.End), and so does
// anything else, as a protocol error. From the master's ready on, it sorts the
// connection (rxStreams).
func (d *daemonSession) watchFE(f *iccl.Forming, cut bool, feData []byte) {
	rx := newRxStreams(d.p.Sim(), "front end", nil, nil)
	rx.forming, d.feRx = f, rx
	idx := uint32(0)
	chunk := func(f *iccl.Forming, body []byte) {
		idx++
		f.Feed(coll.Frame{H: coll.Header{Op: coll.OpSeed, Index: idx - 1}, Body: body, Sum: lmonp.Sum64(body)})
	}
	if cut {
		d.p.Sim().After(0, func() { chunk(f, feData) })
	}
	// The handler reaches the record through rx alone: it outlives the
	// record, which holds the daemon's session.
	d.fe.Handle(func(msg *lmonp.Msg, err error) {
		f := rx.forming
		switch {
		case err != nil:
		case msg.Type == lmonp.TypeStatus && f == nil: // an ask that finds the tree ready is dropped
		case msg.Type == lmonp.TypeStatus: // readyGrace short of readyBound: end the tree, naming whom it waits on
			err = errors.New("ended by the front end")
		case f == nil && !rx.sort(msg):
			err = fmt.Errorf("core: %v message while awaiting tool data or a collective frame", msg.Type)
		case f == nil:
		case cut && msg.Type == lmonp.TypeProctabChunk:
			chunk(f, msg.Payload)
		case cut && msg.Type == lmonp.TypeProctabEnd:
			var total, digest uint64
			if total, digest, err = proctab.DecodeEndMarker(msg.Payload); err == nil {
				f.Feed(coll.Frame{H: coll.Header{Op: coll.OpSeed, Index: idx}, End: true, Total: total, Sum: digest})
			} else {
				err = fmt.Errorf("core: seed end marker: %w", err)
			}
		default:
			err = fmt.Errorf("core: unexpected %v message in session-seed stream", msg.Type)
		}
		switch {
		case err == nil:
		case f != nil:
			f.End(err)
		default:
			rx.fail(err)
		}
	})
}

// adopt takes the bootstrapped communicator; the master's return from
// bootstrap is the fabric-setup completion mark.
func (d *daemonSession) adopt(comm *iccl.Comm) {
	d.comm = comm
	if comm.IsMaster() {
		d.tl.Mark(d.fab.marks.NetDone, d.p.Sim().Now())
	}
}

// readying carries a daemon from its join to its ready: the iccl.Ready its
// Forming record calls on the scheduler. It takes the formed tree, the
// validated seed — where it attaches the collective tool-data plane, whose
// root's FE hop is the master's FE connection (watchFE) — then gathers
// per-daemon info for the ready message and folds the metrics snapshots up
// behind it. It dies with the record, at ready.
type readying struct {
	d   *daemonSession
	env *bootEnv
	all [][]byte // the master's ready gather
}

func (r *readying) Formed(c *iccl.Comm) { r.d.adopt(c) }

func (r *readying) Seeded(blob []byte) ([]byte, error) {
	d := r.d
	if r.env.seedMode == SeedStoreForward && !d.comm.IsMaster() {
		rd := lmonp.NewReader(blob)
		tabEnc, data := rd.Bytes(), rd.Bytes()
		if err := rd.Err(); err != nil {
			return nil, err
		}
		tab, err := proctab.Decode(tabEnc)
		if err != nil {
			return nil, err
		}
		d.tab, d.feData = tab, append([]byte(nil), data...)
	}
	d.tl.Mark(d.fab.marks.SeedValid, d.p.Sim().Now())
	if r.env.seedMode == SeedStoreForward {
		d.myTab = d.tab.OnHost(d.p.Node().Name())
	}
	var up iccl.UpFn
	if d.comm.IsMaster() {
		up = func(f coll.Frame) error { return sendFrameOn(d.fe, d.fab.class, f) }
	}
	d.coll = d.comm.NewPlane(r.env.collChunk, r.env.collWindow, up, nil)
	if d.feRx != nil {
		d.feRx.pl = d.coll
	}
	// Gather per-daemon info to the master; it rides the ready message.
	return encodeDaemonInfo(DaemonInfo{
		Rank:      d.comm.Rank(),
		Host:      d.p.Node().Name(),
		Pid:       d.p.Pid(),
		Tasks:     len(d.myTab),
		PeakBytes: d.peakTableBytes(),
	}), nil
}

// Gathered keeps the master's gather and returns this rank's metrics
// snapshot, which folds up the same tree links the gather just used
// (per-link FIFO keeps the two in order): O(chunk) per link, merged
// pairwise on the way up, so the aggregate rides the ready message without
// any extra round trip. With obs off there is no fold.
func (r *readying) Gathered(all [][]byte) ([]byte, error) {
	r.all = all
	return r.d.obsSnapshot(), nil
}

func (r *readying) Combine(acc, next []byte) ([]byte, error) { return obs.MergeEncoded(acc, next) }

// Folded sends the master's ready message: the gather, its marks and the
// fabric's metrics aggregate.
func (r *readying) Folded(obsBlob []byte) error {
	d := r.d
	if !d.comm.IsMaster() {
		return nil
	}
	d.feRx.forming = nil // an ask that finds the tree ready is dropped
	return d.fe.Send(&lmonp.Msg{Class: d.fab.class, Type: lmonp.TypeReady, Payload: encodeReady(r.all, d.tl, obsBlob)})
}

// harvestObs folds this fabric's per-daemon metrics snapshots up the
// ICCL tree: every rank contributes its registry's encoded snapshot, the
// fold merges pairwise (counters sum, gauges max), and the master gets
// the fabric-wide aggregate — O(chunk) bytes per link regardless of K.
// Nil registry (obs off) short-circuits to no traffic at all. Every rank
// must call it at the same point in the collective sequence.
func (d *daemonSession) harvestObs() ([]byte, error) {
	mine := d.obsSnapshot()
	if mine == nil {
		return nil, nil
	}
	return d.comm.FoldUp(mine, obs.MergeEncoded)
}

// obsSnapshot is this daemon's encoded metrics snapshot, nil when obs is
// off.
func (d *daemonSession) obsSnapshot() []byte {
	if d.obsReg == nil {
		return nil
	}
	d.obsReg.Gauge("daemon.table.bytes.max").SetMax(uint64(d.peakTableBytes()))
	return d.obsReg.Snapshot().Encode()
}

// peakTableBytes models the daemon's peak private RPDTAB memory for the
// ready gather: the whole table under store-forward, just the local rank
// slice under cut-through. The session-shared index is deliberately
// not charged here — it is owned once per session (sessionShared), and
// attributing it to every daemon would make the gathered totals scale as
// O(K x daemons) on paper when the actual fabric footprint is O(K).
func (d *daemonSession) peakTableBytes() int {
	if d.seg == nil {
		return d.tab.MemBytes()
	}
	return d.myTab.MemBytes()
}

// startHealth joins the daemon into its fabric's heartbeat tree when the
// FE planted a heartbeat period in the environment (Options.Health for
// the BE fabric, MWOptions.Health for the MW fabric). The heartbeats
// piggyback on the established ICCL tree links (ShareLinks +
// health.StartOnLinks) — no extra connections.
func (d *daemonSession) startHealth(env *bootEnv) error {
	if env.health.Period == 0 {
		return nil
	}
	parent, children := d.comm.ShareLinks()
	mon, err := health.StartOnLinks(d.p, health.Config{
		Rank: env.tree.Rank, Size: env.tree.Size, Fanout: env.tree.Fanout,
		Period: env.health.Period, Miss: env.health.Miss, Metrics: d.obsReg,
	}, parent, children)
	if err != nil {
		return err
	}
	d.mon = mon
	if d.comm.IsMaster() {
		// Forward failure reports to the front end as status events. Each
		// report is delivered as a scheduler callback (lmonp sends do not
		// block), so the master parks no forwarding goroutine for the
		// lifetime of the session.
		mon.Failures().Handle(func(r health.Report, ok bool) {
			if !ok {
				return
			}
			d.fe.Send(&lmonp.Msg{
				Class: d.fab.class,
				Type:  lmonp.TypeStatusEvent,
				Payload: health.EncodeEvent(health.Event{
					Kind: health.EvDaemonExited, Rank: r.Rank, Detail: r.Detail,
				}),
			})
		})
	}
	return nil
}

// AmIMaster reports whether this daemon is the fabric master (rank 0).
func (d *daemonSession) AmIMaster() bool { return d.comm.IsMaster() }

// Rank returns the daemon's ICCL rank.
func (d *daemonSession) Rank() int { return d.comm.Rank() }

// Size returns the number of daemons in this fabric of the session.
func (d *daemonSession) Size() int { return d.comm.Size() }

// Proctab returns the full RPDTAB of the target job. Under the default
// cut-through pipeline the daemon holds no full copy; the call
// materializes a fresh table from the session-shared index — an O(K)
// allocation the caller owns, deliberately paid only when a tool actually
// asks for the whole table. Scalable tools should prefer MyProctab (the
// local slice, held anyway).
func (d *daemonSession) Proctab() proctab.Table {
	if d.seg == nil {
		return d.tab
	}
	if idx := d.seg.index(); idx != nil {
		return idx.Table()
	}
	return nil
}

// FEData returns the tool data the front end piggybacked on the handshake.
func (d *daemonSession) FEData() []byte { return d.feData }

// timeline returns the daemon's launch marks (net-setup marks at the
// master, seed-validated at every rank). The master's copy also rides the
// ready message into the front end's merged Session.Timeline.
func (d *daemonSession) timeline() engine.Timeline { return d.tl }

// Barrier is the ICCL barrier over all daemons of this fabric.
func (d *daemonSession) Barrier() error { return d.comm.Barrier() }

// Broadcast distributes buf from the master to every daemon of the fabric.
func (d *daemonSession) Broadcast(buf []byte) ([]byte, error) { return d.comm.Broadcast(buf) }

// Gather collects one blob per daemon at the master (rank-indexed).
func (d *daemonSession) Gather(mine []byte) ([][]byte, error) { return d.comm.Gather(mine) }

// Scatter distributes parts[rank] from the master to each daemon.
func (d *daemonSession) Scatter(parts [][]byte) ([]byte, error) { return d.comm.Scatter(parts) }

// Collective returns the daemon's handle on its fabric's collective
// tool-data plane, mirroring the Session methods: what the FE broadcasts
// every daemon of the fabric receives here, and what every daemon gathers
// or reduces arrives at the FE (Session.Broadcast/... for back-end
// daemons, Session.MWGather for middleware daemons); Barrier, AllGather
// and AllReduce stay inside the tree.
func (d *daemonSession) Collective() *iccl.Plane { return d.coll }

// SendToFE ships tool data to the front end (master only).
func (d *daemonSession) SendToFE(data []byte) error {
	if !d.AmIMaster() {
		return ErrNotMaster
	}
	return d.fe.Send(&lmonp.Msg{Class: d.fab.class, Type: lmonp.TypeUsrData, UsrData: data})
}

// RecvFromFE receives tool data from the front end (master only). Reads
// go through the master's sorted FE connection, so tool-data receives and
// concurrent tagged collectives share it safely.
func (d *daemonSession) RecvFromFE() ([]byte, error) {
	if !d.AmIMaster() {
		return nil, ErrNotMaster
	}
	return d.feRx.recvUsr()
}

// Finalize leaves the session: it synchronizes the fabric's daemons,
// stops the failure detector, and closes the tree (and, at the master,
// the FE connection). The barrier releases parents before children, so a
// parent's monitor has stopped by the time a finalized child's link
// closes and the child is not reported as a failure.
func (d *daemonSession) Finalize() error {
	err := d.comm.Barrier()
	// Final metrics harvest: counters that only move after launch
	// (collectives, heartbeats) fold up the still-connected tree, and the
	// master pushes the aggregate to the FE. Best-effort — a fabric
	// finalizing after a fault skips it — and gated identically at every
	// rank so the collective sequence stays aligned.
	if err == nil && d.obsReg != nil {
		if agg, ferr := d.harvestObs(); ferr == nil && d.comm.IsMaster() {
			d.fe.Send(&lmonp.Msg{Class: d.fab.class, Type: lmonp.TypeObsMetrics, Payload: agg})
		}
	}
	if d.mon != nil {
		d.mon.Stop()
	}
	d.comm.Close()
	if d.fe != nil {
		d.fe.Close()
	}
	return err
}
