package slurm

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"

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
// idle slurmd parks no goroutine at all, and its state needs no lock. What
// it keeps between requests is only its job table: nothing until the node's
// first job, then one entry per job that has processes here, gone with the
// kill — at a million nodes the resident RM fabric costs table slots, not
// stacks or maps.
type slurmd struct {
	m    *Manager
	node *cluster.Node
	jobs []nodeJob
}

// nodeJob is the processes a node started for one job: its tasks, and the
// tool daemons spawns on the job added.
type nodeJob struct {
	id    int
	procs []*cluster.Proc
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
		t := &treeCall{d: d, p: p, conn: conn}
		lmonp.HandleFrames(conn, t.arrived)
	})
	// The process stays alive through Spec.Resident; there is no accept
	// loop to park in.
}

// job returns the node's entry for a job, adding it first if need be.
func (d *slurmd) job(id int) *nodeJob {
	for i := range d.jobs {
		if d.jobs[i].id == id {
			return &d.jobs[i]
		}
	}
	d.jobs = append(d.jobs, nodeJob{id: id})
	return &d.jobs[len(d.jobs)-1]
}

// drop removes a job's entry and returns its processes: the last entry
// takes its place, and the slot that frees up is zeroed, so the table holds
// no process of a killed job. The node's last job takes the table with it.
func (d *slurmd) drop(id int) []*cluster.Proc {
	for i := range d.jobs {
		if d.jobs[i].id == id {
			procs, last := d.jobs[i].procs, len(d.jobs)-1
			d.jobs[i], d.jobs[last] = d.jobs[last], nodeJob{}
			if d.jobs = d.jobs[:last]; last == 0 {
				d.jobs = nil
			}
			return procs
		}
	}
	return nil
}

// treeCall is one tree request at one slurmd, from the frame that carries it
// to the reply: the PerMsgCost event that dispatches it (Fire), the Forked
// its local forks report to, and the record of its children's forwards.
// Every forward plus the node's local work counts toward pending, and when
// the last of them completes the reply is written — at max(local done,
// slowest child reply). A failure answers early with an error reply; late
// completions after it are dropped. All of it runs on scheduler callbacks,
// so no lock is needed.
type treeCall struct {
	d    *slurmd
	p    *cluster.Proc
	conn *simnet.Conn
	req  []byte // the request frame, once it has arrived

	op          uint32
	done        bool      // answered, or the request never came
	self, jobid int       // this node's index in the node list; the job
	kids        []kidCall // this node's children in the node list
	pending     int

	fork  cluster.Fork  // the local forks: a launch's tasks, or the daemon
	tpn   int           // a launch's tasks per node,
	local proctab.Chunk // and those forked so far, the way the reply carries them
}

// kidCall is one child's forward: the request rewritten for it, framed,
// until it is sent; then the child's reply or the error the forward ended
// with.
type kidCall struct {
	t        *treeCall
	conn     *simnet.Conn
	req, rep []byte
	err      error
}

// arrived takes the connection's first frame as the request, to be
// dispatched after PerMsgCost of handling CPU. Anything after it (stray
// frames, the requester's EOF) is ignored.
func (t *treeCall) arrived(req []byte, err error) {
	if t.done || t.req != nil {
		return
	}
	if err != nil {
		t.done = true
		t.conn.Close()
		return
	}
	t.req = req
	t.p.Sim().AfterEvent(t.d.m.cfg.PerMsgCost, t)
}

// Fire dispatches the request: it reads what every tree request starts
// with — op, self, jobid — and hands the rest to the op's handler. No read
// is checked here: the Reader keeps its first error, and every handler
// checks it in open, after the request's last field.
func (t *treeCall) Fire() {
	rd := lmonp.NewReader(t.req)
	t.op, t.self, t.jobid = rd.Uint32(), int(rd.Uint32()), int(rd.Uint32())
	switch t.op {
	case opLaunch:
		t.launch(rd)
	case opSpawn:
		t.spawn(rd)
	case opKill:
		t.kill(rd)
	default:
		t.fail(fmt.Sprintf("slurmd: bad op %d", t.op))
	}
}

// kidRange returns the children of self in a k-ary heap over n nodes as
// the index range [first, end).
func kidRange(self, n, fanout int) (first, end int) {
	first = self*fanout + 1
	return first, max(first, min(first+fanout, n))
}

// open reads the node list that ends every tree request — as it travels,
// and expanded — and forwards the request to this node's children in it.
// The whole request has been read by then, so this is where the Reader is
// checked: a request that does not parse — truncated, or a length prefix
// past its end — at any field is refused (not ok, error reply sent) before
// anything is forwarded or forked.
//
// Each child gets the request with its self-index field (the uint32 right
// after the opcode) rewritten, so forwarding works generically. It costs a
// dial event and a frame handler — no forwarding goroutine — and its
// connection is closed as soon as its reply lands. Replies are uncharged.
func (t *treeCall) open(rd *lmonp.Reader, what string) (nl string, nodes []string, ok bool) {
	nl = rd.String()
	if rd.Err() != nil {
		t.fail("slurmd: bad " + what + " request")
		return "", nil, false
	}
	nodes = splitNodes(nl)
	first, end := kidRange(t.self, len(nodes), t.d.m.cfg.Fanout)
	t.kids = make([]kidCall, end-first)
	t.pending = len(t.kids) + 1 // +1 for the local work unit
	for i := range t.kids {
		k := &t.kids[i]
		k.t = t
		k.req = append(lmonp.NewFrame(len(t.req)), t.req...)
		binary.BigEndian.PutUint32(k.req[8:], uint32(first+i))
		if k.conn, k.err = t.p.Host().DialAsync(simnet.Addr{Host: nodes[first+i], Port: SlurmdPort}, k); k.err != nil {
			t.p.Sim().AfterEvent(0, k)
		}
	}
	return nl, nodes, true
}

// Fire is the child's connection up after its handshake, or a turn after a
// dial that failed at once: the forward goes out, or ends with its error.
func (k *kidCall) Fire() {
	if k.err == nil {
		if k.err = lmonp.SendFrame(k.conn, k.req); k.err == nil {
			k.req = nil
			lmonp.HandleFrames(k.conn, k.replied)
			return
		}
		k.conn.Close()
		k.err = k.lost(k.err)
	}
	k.t.complete()
}

// lost names the child whose forward failed on its connection.
func (k *kidCall) lost(err error) error {
	return fmt.Errorf("slurmd: %s lost: %w", k.conn.Peer(), err)
}

func (k *kidCall) replied(rep []byte, err error) {
	if k.rep != nil || k.err != nil {
		return
	}
	if err != nil {
		err = k.lost(err)
	}
	k.rep, k.err = rep, err
	k.conn.Close()
	k.t.complete()
}

func (t *treeCall) complete() {
	t.pending--
	if t.pending == 0 && !t.done {
		t.answer(t.result())
	}
}

// fail answers the call with an error reply, unless it has been answered.
func (t *treeCall) fail(msg string) { t.answer(newReply(msg)) }

// answer sends a reply newReply started, once.
func (t *treeCall) answer(msg []byte) {
	if t.done {
		return
	}
	t.done = true
	binary.BigEndian.PutUint32(msg, uint32(len(msg)-4))
	lmonp.SendFrame(t.conn, msg)
	t.conn.Close()
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

// result is the reply once the local work and every child are done. A kill
// succeeds whatever its children answered: an unreachable child's
// processes died with its node. A launch or spawn folds in each child's
// result, in child order, behind its own — unless a forward failed (the
// first such error is the answer), a child answered with an error, or a
// child's result does not parse.
//
// A launch answers with its tasks followed by its children's tables, merged
// as bytes: every child reply is scanned — checked like a decode, nothing
// materialized — and the reply is written once, at its exact size
// (proctab.AppendMerged).
func (t *treeCall) result() []byte {
	if t.op == opKill {
		return newReply("")
	}
	for _, k := range t.kids {
		if k.err != nil {
			return newReply(k.err.Error())
		}
	}
	what, count := "spawn", uint32(1)
	var parts []proctab.Chunk
	if t.op == opLaunch {
		what, parts = "launch", append(make([]proctab.Chunk, 0, 1+len(t.kids)), t.local)
	}
	for _, k := range t.kids {
		res, err := rm.OpenReply(k.rep)
		if err != nil {
			return newReply("slurmd: child " + what + " failed: " + err.Error())
		}
		rd := lmonp.NewReader(res)
		if t.op == opSpawn {
			count += rd.Uint32()
		} else if enc := rd.Bytes(); rd.Err() == nil {
			var sub proctab.Chunk
			sub, err = proctab.Scan(enc)
			parts = append(parts, sub)
		}
		if rd.Err() != nil {
			err = rd.Err()
		}
		if err != nil {
			return newReply(err.Error())
		}
	}
	if t.op == opSpawn {
		return lmonp.AppendUint32(newReply(""), count)
	}
	// lmonp.AppendBytes of a table that is rendered in place: the length
	// prefix is filled in behind it.
	b := newReply("")
	at := len(b)
	b = proctab.AppendMerged(append(b, 0, 0, 0, 0), parts...)
	binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	return b
}

// Forked takes a local fork's process: a launch task joins the reply and
// the next one is forked, a daemon is the spawn's local work done.
func (t *treeCall) Forked(proc *cluster.Proc, err error) {
	d := t.d
	if err != nil {
		t.fail(fmt.Sprintf("slurmd %s: %v", d.node.Name(), err))
		return
	}
	j := d.job(t.jobid)
	j.procs = append(j.procs, proc)
	if t.op == opSpawn {
		t.complete()
		return
	}
	t.local.Append(d.node.Name(), t.fork.Spec.Exe, uint32(proc.Pid()), uint32(t.self*t.tpn+t.local.Len()))
	t.next()
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

// launch forks the node's tasks (block rank distribution: node i owns ranks
// i*tpn .. i*tpn+tpn-1) one after the other, so they serialize on this
// node's fork window in request order, through the one Fork the call holds.
// The children are forwarded to first, so subtrees overlap with local
// forking.
func (t *treeCall) launch(rd *lmonp.Reader) {
	tpn, exe := int(rd.Uint32()), rd.String()
	if _, _, ok := t.open(rd, "launch"); !ok {
		return
	}
	t.tpn, t.fork = tpn, cluster.Fork{Spec: cluster.Spec{Exe: exe, Passive: true}, To: t}
	t.local.Grow(tpn)
	// The tasks, and the tool daemon a spawn on the job adds.
	j := t.d.job(t.jobid)
	j.procs = slices.Grow(j.procs, tpn+1)
	t.next()
}

// next forks the next task, or reports the local work done.
func (t *treeCall) next() {
	if t.local.Len() == t.tpn {
		t.complete()
		return
	}
	t.d.node.SpawnProcEvent(&t.fork)
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

// spawn starts the node's tool daemon. The daemon spec — exe, args, env —
// is checked field by field as rm.ReadDaemonSpec reads it but not decoded:
// only the daemon's node index differs across the K nodes, so the spec is
// decoded once per request body (identical at every node: the self-index
// field is excluded) into the job's spawn layer, which every daemon shares
// as its base environment.
func (t *treeCall) spawn(rd *lmonp.Reader) {
	rd.Bytes()
	for n := rd.Count(4); n > 0; n-- {
		rd.Bytes()
	}
	rd.StringMapBytes()
	nl, nodes, ok := t.open(rd, "spawn")
	if !ok {
		return
	}
	layer := t.d.m.SpawnEnv(t.jobid, t.req[8:], func() rm.DaemonSpec {
		s := rm.ReadDaemonSpec(lmonp.NewReader(t.req[12:])) // behind op, self, jobid
		s.Env[rm.EnvNNodes] = strconv.Itoa(len(nodes))
		s.Env[rm.EnvNodeList] = nl
		s.Env[rm.EnvJobID] = strconv.Itoa(t.jobid)
		return s
	})
	t.fork = cluster.Fork{To: t, Spec: cluster.Spec{Exe: layer.Exe, Args: layer.Args, EnvBase: layer.Env,
		Env: map[string]string{rm.EnvNodeID: strconv.Itoa(t.self)}}}
	t.d.node.SpawnProcEvent(&t.fork)
}

// kill request layout: op, self, jobid, nodelist.
func encodeKill(jobid int, nodelist []string) []byte {
	b := lmonp.AppendUint32(nil, opKill)
	b = lmonp.AppendUint32(b, 0)
	b = lmonp.AppendUint32(b, uint32(jobid))
	b = lmonp.AppendString(b, joinNodes(nodelist))
	return b
}

func (t *treeCall) kill(rd *lmonp.Reader) {
	if _, _, ok := t.open(rd, "kill"); !ok {
		return
	}
	for _, proc := range t.d.drop(t.jobid) {
		proc.Kill()
	}
	t.complete()
}
