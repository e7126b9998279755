package slurm

import (
	"fmt"
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

func (d *slurmd) dispatch(p *cluster.Proc, conn *simnet.Conn, req []byte) {
	rd := lmonp.NewReader(req)
	op, err := rd.Uint32()
	if err != nil {
		conn.Close()
		return
	}
	reply := func(resp []byte) {
		writeFrame(conn, resp)
		conn.Close()
	}
	switch op {
	case opLaunch:
		d.handleLaunch(p, req, rd, reply)
	case opSpawn:
		d.handleSpawn(p, req, rd, reply)
	case opKill:
		d.handleKill(p, req, rd, reply)
	default:
		reply(lmonp.AppendString(nil, fmt.Sprintf("slurmd: bad op %d", op)))
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
	pending int
	done    bool
	replies [][]byte
	errs    []error
	reply   func([]byte)
	finish  func()
}

func newTreeCall(kids int, reply func([]byte)) *treeCall {
	return &treeCall{
		pending: kids + 1, // +1 for the local work unit
		replies: make([][]byte, kids),
		errs:    make([]error, kids),
		reply:   reply,
	}
}

func (t *treeCall) complete() {
	t.pending--
	if t.pending == 0 && !t.done {
		t.done = true
		t.finish()
	}
}

func (t *treeCall) abort(resp []byte) {
	if t.done {
		return
	}
	t.done = true
	t.reply(resp)
}

// firstErr returns the first forward error in child order (the error the
// old sequential check surfaced).
func (t *treeCall) firstErr() error {
	for _, err := range t.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forwardKids fans the raw request out to the children of self in
// nodelist, rewriting the self-index field (the uint32 right after the
// opcode, letting forwarding work generically), and records one reply
// payload or error per child in st. Each child costs a dial callback and
// a frame handler — no forwarding goroutine — and its connection is
// closed as soon as its reply lands. Replies are uncharged, as before.
func (d *slurmd) forwardKids(p *cluster.Proc, raw []byte, nodelist []string, kids []int, st *treeCall) {
	for i, k := range kids {
		i, k := i, k
		req := make([]byte, len(raw))
		copy(req, raw)
		req[4] = byte(uint32(k) >> 24)
		req[5] = byte(uint32(k) >> 16)
		req[6] = byte(uint32(k) >> 8)
		req[7] = byte(uint32(k))
		p.Host().DialAsync(simnet.Addr{Host: nodelist[k], Port: SlurmdPort}, func(conn *simnet.Conn, err error) {
			if err != nil {
				st.errs[i] = err
				st.complete()
				return
			}
			if err := writeFrame(conn, req); err != nil {
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

func (d *slurmd) handleLaunch(p *cluster.Proc, raw []byte, rd *lmonp.Reader, reply func([]byte)) {
	self32, _ := rd.Uint32()
	jobid32, _ := rd.Uint32()
	tpn32, _ := rd.Uint32()
	exe, _ := rd.String()
	nl, err := rd.String()
	if err != nil {
		reply(lmonp.AppendString(nil, "slurmd: bad launch request"))
		return
	}
	self, jobid, tpn := int(self32), int(jobid32), int(tpn32)
	nodelist := splitNodes(nl)

	kids := children(self, len(nodelist), d.m.cfg.Fanout)
	st := newTreeCall(len(kids), reply)
	local := make(proctab.Table, 0, tpn)
	st.finish = func() {
		if err := st.firstErr(); err != nil {
			st.reply(lmonp.AppendString(nil, err.Error()))
			return
		}
		merged := local
		for _, rep := range st.replies {
			res, err := rm.OpenReply(rep)
			if err != nil {
				st.reply(lmonp.AppendString(nil, "slurmd: child launch failed: "+err.Error()))
				return
			}
			enc, err := lmonp.NewReader(res).Bytes()
			if err != nil {
				st.reply(lmonp.AppendString(nil, err.Error()))
				return
			}
			sub, err := proctab.Decode(enc)
			if err != nil {
				st.reply(lmonp.AppendString(nil, err.Error()))
				return
			}
			merged = append(merged, sub...)
		}
		out := lmonp.AppendString(nil, "")
		st.reply(lmonp.AppendBytes(out, merged.Encode()))
	}

	// Forward first so subtrees overlap with local forking.
	d.forwardKids(p, raw, nodelist, kids, st)

	// Fork the local tasks (block rank distribution: node i owns ranks
	// i*tpn .. i*tpn+tpn-1), chained so they serialize on this node's fork
	// window in request order, as the old blocking loop did.
	var forkNext func(i int)
	forkNext = func(i int) {
		if i == tpn {
			st.complete()
			return
		}
		d.node.SpawnProcAsync(cluster.Spec{Exe: exe, Passive: true}, func(proc *cluster.Proc, err error) {
			if err != nil {
				st.abort(lmonp.AppendString(nil, fmt.Sprintf("slurmd %s: %v", d.node.Name(), err)))
				return
			}
			d.track(jobid, proc)
			local = append(local, proctab.ProcDesc{
				Host: d.node.Name(), Exe: exe, Pid: proc.Pid(), Rank: self*tpn + i,
			})
			forkNext(i + 1)
		})
	}
	forkNext(0)
}

// spawn request layout: op, self, jobid, exe, args, env, nodelist.
func encodeSpawn(jobid int, spec rm.DaemonSpec, nodelist []string) []byte {
	b := lmonp.AppendUint32(nil, opSpawn)
	b = lmonp.AppendUint32(b, 0) // self index; rewritten per hop
	b = lmonp.AppendUint32(b, uint32(jobid))
	b = lmonp.AppendString(b, spec.Exe)
	b = lmonp.AppendStringList(b, spec.Args)
	b = lmonp.AppendStringMap(b, sortedEnv(spec.Env))
	b = lmonp.AppendString(b, joinNodes(nodelist))
	return b
}

func (d *slurmd) handleSpawn(p *cluster.Proc, raw []byte, rd *lmonp.Reader, reply func([]byte)) {
	self32, _ := rd.Uint32()
	jobid32, _ := rd.Uint32()
	exe, _ := rd.String()
	args, _ := rd.StringList()
	kv, _ := rd.StringMap()
	nl, err := rd.String()
	if err != nil {
		reply(lmonp.AppendString(nil, "slurmd: bad spawn request"))
		return
	}
	self, jobid := int(self32), int(jobid32)
	nodelist := splitNodes(nl)

	kids := children(self, len(nodelist), d.m.cfg.Fanout)
	st := newTreeCall(len(kids), reply)
	st.finish = func() {
		if err := st.firstErr(); err != nil {
			st.reply(lmonp.AppendString(nil, err.Error()))
			return
		}
		count := uint32(1)
		for _, rep := range st.replies {
			res, err := rm.OpenReply(rep)
			if err != nil {
				st.reply(lmonp.AppendString(nil, "slurmd: child spawn failed: "+err.Error()))
				return
			}
			c, err := lmonp.NewReader(res).Uint32()
			if err != nil {
				st.reply(lmonp.AppendString(nil, err.Error()))
				return
			}
			count += c
		}
		out := lmonp.AppendString(nil, "")
		st.reply(lmonp.AppendUint32(out, count))
	}

	d.forwardKids(p, raw, nodelist, kids, st)

	// Only the node index differs across the K spawned daemons; the rest
	// of the environment is interned once per request body (identical at
	// every node: the self-index field is excluded) with the job, and
	// shared as the processes' base layer — one map for the whole fabric
	// instead of one ~16-entry map per node.
	base := d.m.SpawnEnv(jobid, raw[8:], func() map[string]string {
		env := make(map[string]string, len(kv)+3)
		for _, e := range kv {
			env[e[0]] = e[1]
		}
		env[rm.EnvNNodes] = fmt.Sprint(len(nodelist))
		env[rm.EnvNodeList] = nl
		env[rm.EnvJobID] = fmt.Sprint(jobid)
		return env
	})
	overlay := map[string]string{rm.EnvNodeID: fmt.Sprint(self)}
	d.node.SpawnProcAsync(cluster.Spec{Exe: exe, Args: args, Env: overlay, EnvBase: base}, func(proc *cluster.Proc, err error) {
		if err != nil {
			st.abort(lmonp.AppendString(nil, fmt.Sprintf("slurmd %s: %v", d.node.Name(), err)))
			return
		}
		d.track(jobid, proc)
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

func (d *slurmd) handleKill(p *cluster.Proc, raw []byte, rd *lmonp.Reader, reply func([]byte)) {
	self32, _ := rd.Uint32()
	jobid32, _ := rd.Uint32()
	nl, err := rd.String()
	if err != nil {
		reply(lmonp.AppendString(nil, "slurmd: bad kill request"))
		return
	}
	self, jobid := int(self32), int(jobid32)
	nodelist := splitNodes(nl)

	kids := children(self, len(nodelist), d.m.cfg.Fanout)
	st := newTreeCall(len(kids), reply)
	st.finish = func() {
		// Kill is tolerant: an unreachable child's processes died with its
		// node, so forward errors are not failures.
		st.reply(lmonp.AppendString(nil, ""))
	}

	d.forwardKids(p, raw, nodelist, kids, st)

	d.mu.Lock()
	procs := d.jobProcs[jobid]
	delete(d.jobProcs, jobid)
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
