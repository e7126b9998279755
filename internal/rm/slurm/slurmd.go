package slurm

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"launchmon/internal/cluster"
	"launchmon/internal/lmonp"
	"launchmon/internal/proctab"
	"launchmon/internal/rm"
	"launchmon/internal/simnet"
)

// slurmd opcodes.
const (
	opLaunch = 10 // launch job tasks over the tree
	opSpawn  = 11 // spawn one tool daemon per node over the tree
	opKill   = 12 // kill a job's tasks and daemons over the tree
)

// slurmd is the per-node RM daemon. It receives tree requests, forwards
// them to its children in the launch node list (k-ary heap layout), acts
// locally, and aggregates replies.
//
// It is fully event-driven: the listener, per-request processing, child
// forwards and local forks all run as vtime scheduler callbacks, so an
// idle slurmd parks no goroutine at all — at a million nodes the resident
// RM fabric costs table slots, not stacks. Virtual-time behaviour is
// identical to the previous goroutine-per-connection shape: the same
// per-request PerMsgCost charge, the same dial/fork instants, and a reply
// written at the same completion time (max of local work and the last
// child reply).
type slurmd struct {
	m    *Manager
	node *cluster.Node

	mu       sync.Mutex
	jobProcs map[int][]*cluster.Proc // processes started for each job id
}

func (d *slurmd) main(p *cluster.Proc) {
	l, err := p.Host().Listen(SlurmdPort)
	if err != nil {
		return
	}
	l.Handle(func(conn *simnet.Conn, err error) {
		if err != nil {
			return
		}
		d.serve(p, conn)
	})
	// The process stays alive through Spec.Resident; there is no accept
	// loop to park in.
}

// serve arms one accepted connection: the first frame is the request,
// charged PerMsgCost of handling CPU and then dispatched. Anything after
// it (stray frames, the requester's EOF) is ignored.
func (d *slurmd) serve(p *cluster.Proc, conn *simnet.Conn) {
	got := false
	lmonp.HandleFrames(conn, func(req []byte, err error) {
		if got {
			return
		}
		got = true
		if err != nil {
			conn.Close()
			return
		}
		p.Sim().After(d.m.cfg.PerMsgCost, func() {
			d.dispatch(p, conn, req)
		})
	})
}

// dispatch reads what every tree request starts with — op, self, jobid —
// and hands the rest to the op's handler. No read is checked here: the
// Reader keeps its first error, and every handler checks it in open, after
// the request's last field.
func (d *slurmd) dispatch(p *cluster.Proc, conn *simnet.Conn, req []byte) {
	rd := lmonp.NewReader(req)
	op := rd.Uint32()
	st := &treeCall{self: int(rd.Uint32()), jobid: int(rd.Uint32()), reply: func(msg []byte) {
		binary.BigEndian.PutUint32(msg, uint32(len(msg)-4))
		lmonp.SendFrame(conn, msg)
		conn.Close()
	}}
	switch op {
	case opLaunch:
		d.handleLaunch(p, req, rd, st)
	case opSpawn:
		d.handleSpawn(p, req, rd, st)
	case opKill:
		d.handleKill(p, req, rd, st)
	default:
		st.fail(fmt.Sprintf("slurmd: bad op %d", op))
	}
}

// children returns the k-ary heap children indices of self within a node
// list of the given length.
func children(self, n, fanout int) []int {
	var out []int
	for c := self*fanout + 1; c <= self*fanout+fanout && c < n; c++ {
		out = append(out, c)
	}
	return out
}

// treeCall tracks one in-flight tree request: every child forward plus
// the node's local work counts toward pending, and when the last of them
// completes the finish callback assembles and writes the reply — at
// max(local done, slowest child reply), exactly when the old blocking
// shape (serial local work, then wait for the forward fan-out) replied.
// abort ends the call early with an error reply (the old "return on local
// fork failure" path); late completions after an abort are dropped. All
// state transitions happen on scheduler callbacks, so no lock is needed.
type treeCall struct {
	self, jobid int      // this node's index in the node list; the job
	nl          string   // the request's node list as it travelled
	nodes       []string // and expanded
	kids        []int    // this node's children in it

	pending int
	done    bool
	replies [][]byte
	errs    []error
	reply   func(msg []byte) // sends a message newReply started
	finish  func()
}

// newReply starts the reply to a tree request in the buffer that goes on
// the wire: a frame message led by the error string, empty on success. Its
// length prefix is filled in when it is sent, so the result is appended
// behind the string however long it turns out to be: there is room for a
// small one (a spawn's count), and a launch's table grows the buffer once,
// to its size.
func newReply(emsg string) []byte {
	return lmonp.AppendString(make([]byte, 4, 16+len(emsg)), emsg)
}

// open reads the node list that ends every tree request and sets the call
// up over this node's children in it. The whole request has been read by
// then, so this is where the Reader is checked: a request that does not
// parse — truncated, or a length prefix past its end — at any field is
// refused (false, error reply sent) before anything is forwarded or forked.
func (d *slurmd) open(st *treeCall, rd *lmonp.Reader, what string) bool {
	st.nl = rd.String()
	if rd.Err() != nil {
		st.fail("slurmd: bad " + what + " request")
		return false
	}
	st.nodes = splitNodes(st.nl)
	st.kids = children(st.self, len(st.nodes), d.m.cfg.Fanout)
	st.pending = len(st.kids) + 1 // +1 for the local work unit
	st.replies = make([][]byte, len(st.kids))
	st.errs = make([]error, len(st.kids))
	return true
}

func (t *treeCall) complete() {
	t.pending--
	if t.pending == 0 && !t.done {
		t.done = true
		t.finish()
	}
}

// fail answers the call with an error reply.
func (t *treeCall) fail(msg string) { t.reply(newReply(msg)) }

func (t *treeCall) abort(msg string) {
	if t.done {
		return
	}
	t.done = true
	t.fail(msg)
}

// gather answers the call from its children's replies: merge folds in each
// child's result, in child order, and result renders what follows the
// empty error string of a success. The first forward error (the error the
// old sequential check surfaced), failed child or merge error is the
// answer instead.
func (t *treeCall) gather(what string, merge func(res []byte) error, result func(b []byte) []byte) {
	for _, err := range t.errs {
		if err != nil {
			t.fail(err.Error())
			return
		}
	}
	for _, rep := range t.replies {
		res, err := rm.OpenReply(rep)
		if err != nil {
			t.fail("slurmd: child " + what + " failed: " + err.Error())
			return
		}
		if err := merge(res); err != nil {
			t.fail(err.Error())
			return
		}
	}
	t.reply(result(newReply("")))
}

// forwardKids fans the raw request out to the children of self in
// nodelist, rewriting the self-index field (the uint32 right after the
// opcode, letting forwarding work generically), and records one reply
// payload or error per child in st. Each child costs a dial callback and
// a frame handler — no forwarding goroutine — and its connection is
// closed as soon as its reply lands. Replies are uncharged, as before.
func (d *slurmd) forwardKids(p *cluster.Proc, raw []byte, st *treeCall) {
	for i, k := range st.kids {
		i, k := i, k
		req := make([]byte, len(raw))
		copy(req, raw)
		req[4] = byte(uint32(k) >> 24)
		req[5] = byte(uint32(k) >> 16)
		req[6] = byte(uint32(k) >> 8)
		req[7] = byte(uint32(k))
		p.Host().DialAsync(simnet.Addr{Host: st.nodes[k], Port: SlurmdPort}, func(conn *simnet.Conn, err error) {
			if err != nil {
				st.errs[i] = err
				st.complete()
				return
			}
			if err := lmonp.WriteFrame(conn, req); err != nil {
				conn.Close()
				st.errs[i] = err
				st.complete()
				return
			}
			answered := false
			lmonp.HandleFrames(conn, func(rep []byte, err error) {
				if answered {
					return
				}
				answered = true
				conn.Close()
				st.replies[i], st.errs[i] = rep, err
				st.complete()
			})
		})
	}
}

// launch request layout: op, self, jobid, tasksPerNode, exe, nodelist.
func encodeLaunch(jobid, tasksPerNode int, exe string, nodelist []string) []byte {
	b := lmonp.AppendUint32(nil, opLaunch)
	b = lmonp.AppendUint32(b, 0) // self index; rewritten per hop
	b = lmonp.AppendUint32(b, uint32(jobid))
	b = lmonp.AppendUint32(b, uint32(tasksPerNode))
	b = lmonp.AppendString(b, exe)
	b = lmonp.AppendString(b, joinNodes(nodelist))
	return b
}

func (d *slurmd) handleLaunch(p *cluster.Proc, raw []byte, rd *lmonp.Reader, st *treeCall) {
	tpn, exe := int(rd.Uint32()), rd.String()
	if !d.open(st, rd, "launch") {
		return
	}
	lc := &launchCall{d: d, st: st, tpn: tpn, fork: cluster.Fork{Spec: cluster.Spec{Exe: exe, Passive: true}}}
	lc.fork.To = lc
	lc.local.Grow(tpn)
	d.mu.Lock()
	// The tasks, and the tool daemon a spawn on the job adds.
	d.jobProcs[st.jobid] = slices.Grow(d.jobProcs[st.jobid], tpn+1)
	d.mu.Unlock()
	st.finish = func() { st.replyLaunch(lc.local) }

	// Forward first so subtrees overlap with local forking.
	d.forwardKids(p, raw, st)
	lc.next()
}

// launchCall is the local half of one launch request: the node's tasks
// (block rank distribution: node i owns ranks i*tpn .. i*tpn+tpn-1), forked
// one after the other so they serialize on this node's fork window in
// request order, as the old blocking loop did. It is the one Fork they all
// use and the callback each reports to, and it keeps them the way the reply
// carries them.
type launchCall struct {
	d     *slurmd
	st    *treeCall
	tpn   int
	fork  cluster.Fork
	local proctab.Chunk
}

// next forks the next task, or reports the local work done.
func (lc *launchCall) next() {
	if lc.local.Len() == lc.tpn {
		lc.st.complete()
		return
	}
	lc.d.node.SpawnProcEvent(&lc.fork)
}

func (lc *launchCall) Forked(proc *cluster.Proc, err error) {
	d, st := lc.d, lc.st
	if err != nil {
		st.abort(fmt.Sprintf("slurmd %s: %v", d.node.Name(), err))
		return
	}
	d.track(st.jobid, proc)
	lc.local.Append(d.node.Name(), lc.fork.Spec.Exe, uint32(proc.Pid()), uint32(st.self*lc.tpn+lc.local.Len()))
	lc.next()
}

// replyLaunch answers a launch with this node's tasks followed by its
// children's tables, in child order, merged as bytes: every child reply is
// scanned — checked like a decode, nothing materialized — and the reply is
// written once, at its exact size (proctab.AppendMerged).
func (t *treeCall) replyLaunch(local proctab.Chunk) {
	parts := make([]proctab.Chunk, 1, 1+len(t.replies))
	parts[0] = local
	t.gather("launch", func(res []byte) error {
		rd := lmonp.NewReader(res)
		enc := rd.Bytes()
		if err := rd.Err(); err != nil {
			return err
		}
		sub, err := proctab.Scan(enc)
		parts = append(parts, sub)
		return err
	}, func(b []byte) []byte {
		// lmonp.AppendBytes of a table that is rendered in place: the
		// length prefix is filled in behind it.
		at := len(b)
		b = proctab.AppendMerged(append(b, 0, 0, 0, 0), parts...)
		binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
		return b
	})
}

// spawn request layout: op, self, jobid, daemon spec, nodelist.
func encodeSpawn(jobid int, spec rm.DaemonSpec, nodelist []string) []byte {
	b := lmonp.AppendUint32(nil, opSpawn)
	b = lmonp.AppendUint32(b, 0) // self index; rewritten per hop
	b = lmonp.AppendUint32(b, uint32(jobid))
	b = rm.AppendDaemonSpec(b, spec)
	b = lmonp.AppendString(b, joinNodes(nodelist))
	return b
}

func (d *slurmd) handleSpawn(p *cluster.Proc, raw []byte, rd *lmonp.Reader, st *treeCall) {
	// The daemon spec, field by field rather than through
	// rm.ReadDaemonSpec: the environment stays wire bytes here, checked but
	// not decoded, because only the first node of the fabric to see this
	// request makes a map of it (SpawnEnv below).
	exe, args, envList := rd.String(), rd.StringList(), rd.StringMapBytes()
	if !d.open(st, rd, "spawn") {
		return
	}
	st.finish = func() {
		count := uint32(1)
		st.gather("spawn", func(res []byte) error {
			rd := lmonp.NewReader(res)
			count += rd.Uint32()
			return rd.Err()
		}, func(b []byte) []byte { return lmonp.AppendUint32(b, count) })
	}

	d.forwardKids(p, raw, st)

	// Only the node index differs across the K spawned daemons; the rest
	// of the environment is interned once per request body (identical at
	// every node: the self-index field is excluded) with the job, and
	// shared as the processes' base layer — one map for the whole fabric
	// instead of one ~16-entry map per node.
	base := d.m.SpawnEnv(st.jobid, raw[8:], func() map[string]string {
		kv := lmonp.NewReader(envList).StringMap()
		env := make(map[string]string, len(kv)+3)
		for _, e := range kv {
			env[e[0]] = e[1]
		}
		env[rm.EnvNNodes] = fmt.Sprint(len(st.nodes))
		env[rm.EnvNodeList] = st.nl
		env[rm.EnvJobID] = fmt.Sprint(st.jobid)
		return env
	})
	overlay := map[string]string{rm.EnvNodeID: fmt.Sprint(st.self)}
	d.node.SpawnProcAsync(cluster.Spec{Exe: exe, Args: args, Env: overlay, EnvBase: base}, func(proc *cluster.Proc, err error) {
		if err != nil {
			st.abort(fmt.Sprintf("slurmd %s: %v", d.node.Name(), err))
			return
		}
		d.track(st.jobid, proc)
		st.complete()
	})
}

// kill request layout: op, self, jobid, nodelist.
func encodeKill(jobid int, nodelist []string) []byte {
	b := lmonp.AppendUint32(nil, opKill)
	b = lmonp.AppendUint32(b, 0)
	b = lmonp.AppendUint32(b, uint32(jobid))
	b = lmonp.AppendString(b, joinNodes(nodelist))
	return b
}

func (d *slurmd) handleKill(p *cluster.Proc, raw []byte, rd *lmonp.Reader, st *treeCall) {
	if !d.open(st, rd, "kill") {
		return
	}
	// Kill is tolerant: an unreachable child's processes died with its
	// node, so forward errors are not failures.
	st.finish = func() { st.reply(newReply("")) }

	d.forwardKids(p, raw, st)

	d.mu.Lock()
	procs := d.jobProcs[st.jobid]
	delete(d.jobProcs, st.jobid)
	d.mu.Unlock()
	for _, proc := range procs {
		proc.Kill()
	}
	st.complete()
}

func (d *slurmd) track(jobid int, p *cluster.Proc) {
	d.mu.Lock()
	d.jobProcs[jobid] = append(d.jobProcs[jobid], p)
	d.mu.Unlock()
}
