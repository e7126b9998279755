package rm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/lmonp"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// Fabric is the part of a resource manager that is its own: how a request
// reaches the node daemons of a node list. Launch and Spawn run on the
// launcher process p and block until every node has answered; Kill runs
// from a host, because it must also work once the launcher is gone.
type Fabric interface {
	// Launch starts spec.TasksPerNode tasks of job id on each node and
	// returns their descriptors, in any order, in wire form (the encoding
	// proctab.Scan reads).
	Launch(p *cluster.Proc, id int, spec JobSpec, nodes []string) ([]byte, error)
	// Spawn starts one tool daemon per node, with the EnvNodeID, EnvNNodes,
	// EnvNodeList and EnvJobID variables merged into spec.Env.
	Spawn(p *cluster.Proc, id int, nodes []string, spec DaemonSpec) error
	// Kill terminates every process the node daemons started for job id.
	Kill(from *simnet.Host, id int, nodes []string) error
}

// Profile is everything else that tells one resource manager from
// another: what its processes are called and what the launcher and the
// allocation service charge in virtual time.
type Profile struct {
	Launcher     string                 // launcher executable ("srun")
	LauncherArgs func(JobSpec) []string // its command line
	Allocator    string                 // allocation service executable
	AllocPort    int                    // and its port on the front end

	// DebugEvents is the number of tracer stops before MPIR_Breakpoint.
	DebugEvents int
	// An allocation of n nodes costs AllocBase + n × AllocPerNode.
	AllocBase, AllocPerNode time.Duration
	// PerTaskRootCost is the launcher's bookkeeping per launched task,
	// PerNodeSpawnRootCost its ack processing per spawned tool daemon.
	PerTaskRootCost, PerNodeSpawnRootCost time.Duration
}

// Skeleton is the resource manager every backend shares: the job registry,
// the job handle, the launcher process body and the allocation service. A
// backend installs it with its Profile and Fabric and boots its own node
// daemons; it embeds the Skeleton to be an rm.Manager.
type Skeleton struct {
	cl     *cluster.Cluster
	prof   Profile
	fabric Fabric

	mu     sync.Mutex
	nextID int
	jobs   map[int]*job // launching and running jobs; a killed job leaves
}

var _ Manager = (*Skeleton)(nil)

// Install boots the allocation service on the front end and returns the
// manager. Call before running the simulation.
func Install(cl *cluster.Cluster, prof Profile, fabric Fabric) (*Skeleton, error) {
	s := &Skeleton{cl: cl, prof: prof, fabric: fabric, jobs: make(map[int]*job)}
	_, err := cl.FrontEnd().SpawnSystemProc(cluster.Spec{Exe: prof.Allocator, Main: s.allocatorMain})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// DebugEventCount implements Manager; every profile's count is scale-free.
func (s *Skeleton) DebugEventCount(JobSpec) int { return s.prof.DebugEvents }

// StartJobHeld implements Manager.
func (s *Skeleton) StartJobHeld(spec JobSpec) (Job, error) { return s.startJob(spec, true) }

// StartJob implements Manager.
func (s *Skeleton) StartJob(spec JobSpec) (Job, error) { return s.startJob(spec, false) }

func (s *Skeleton) startJob(spec JobSpec, hold bool) (Job, error) {
	if spec.Nodes <= 0 || spec.TasksPerNode <= 0 {
		return nil, errors.New("rm: job needs positive Nodes and TasksPerNode")
	}
	if spec.Nodes > s.cl.NumNodes() {
		return nil, fmt.Errorf("%w: want %d, have %d", ErrInsufficient, spec.Nodes, s.cl.NumNodes())
	}
	s.mu.Lock()
	s.nextID++
	j := &job{s: s, id: s.nextID, spec: spec, cmds: vtime.NewChan[command](s.cl.Sim())}
	s.jobs[j.id] = j
	s.mu.Unlock()

	p, err := s.cl.FrontEnd().SpawnProc(cluster.Spec{
		Exe:  s.prof.Launcher,
		Main: j.launcherMain,
		Hold: hold,
		Args: s.prof.LauncherArgs(spec),
	})
	if err != nil {
		s.forget(j.id)
		return nil, err
	}
	j.proc = p
	// The reaper serves control commands once the launcher dies, so a kill
	// against a lost launcher still reaps the job instead of hanging.
	s.cl.Sim().Go(fmt.Sprintf("rm-job-reaper-%d", j.id), j.reaper)
	return j, nil
}

// FindJob implements Manager. A killed job is not found.
func (s *Skeleton) FindJob(id int) (Job, bool) {
	if j := s.job(id); j != nil {
		return j, true
	}
	return nil, false
}

func (s *Skeleton) job(id int) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Skeleton) forget(id int) {
	s.mu.Lock()
	delete(s.jobs, id)
	s.mu.Unlock()
}

// SpawnEnv interns the spawn layer the daemons of one spawn request share —
// exe, args and the environment: the node daemons of a fabric that carries
// one request body to every node (slurmd) each present that body as key,
// the first builds the layer and the rest reuse it — one decode for the
// whole fabric, the simulated analogue of K nodes parsing the same request.
// The layer belongs to the job and is dropped with it; the caller must not
// mutate the result. A request for a job no longer registered shares
// nothing.
func (s *Skeleton) SpawnEnv(id int, key []byte, build func() DaemonSpec) DaemonSpec {
	j := s.job(id)
	if j == nil {
		return build()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, l := range j.layers {
		if bytes.Equal(l.key, key) {
			return l.spec
		}
	}
	spec := build()
	j.layers = append(j.layers, spawnLayer{key: key, spec: spec})
	return spec
}

// --- allocation service ---

// opAlloc is the allocation request: n uint32, exclude []string → nodelist.
const opAlloc = 1

// allocatorMain serves node allocations first-fit over the cluster's node
// order, marking taken nodes by index. Nodes are never returned to the free
// list: reuse after a kill would change later jobs' node lists and with them
// every pinned byte. So every node before the first free one stays
// allocated, and a request scans from there; a refused request takes none.
func (s *Skeleton) allocatorMain(p *cluster.Proc) {
	n := s.cl.NumNodes()
	taken := make([]bool, n)
	first := 0 // nodes [0, first) are taken
	var mu sync.Mutex
	Serve(p, s.prof.AllocPort, func(rd *lmonp.Reader, reply Reply) {
		op, want, exclude := rd.Uint32(), int(rd.Uint32()), rd.StringList()
		if rd.Err() != nil || op != opAlloc {
			reply(nil, errors.New("bad request"))
			return
		}
		p.Compute(s.prof.AllocBase + time.Duration(want)*s.prof.AllocPerNode)
		ex := make(map[string]bool, len(exclude))
		for _, e := range exclude {
			ex[e] = true
		}
		free := func(i int) bool { return !taken[i] && !ex[s.cl.Node(i).Name()] }
		mu.Lock()
		// The first want free nodes lie in [first, end): count them before
		// taking any.
		end, got := first, 0
		for ; got < want && end < n; end++ {
			if free(end) {
				got++
			}
		}
		if got < want {
			mu.Unlock()
			reply(nil, errors.New("insufficient nodes"))
			return
		}
		picked := make([]string, 0, want)
		for i := first; i < end; i++ {
			if free(i) {
				taken[i] = true
				picked = append(picked, s.cl.Node(i).Name())
			}
		}
		for first < n && taken[first] {
			first++
		}
		mu.Unlock()
		reply(lmonp.AppendStringList(nil, picked), nil)
	})
}

// allocate asks the allocation service for n nodes outside exclude.
func (s *Skeleton) allocate(from *simnet.Host, n int, exclude []string) ([]string, error) {
	req := lmonp.AppendUint32(nil, opAlloc)
	req = lmonp.AppendUint32(req, uint32(n))
	req = lmonp.AppendStringList(req, exclude)
	rd, err := Call(from, simnet.Addr{Host: s.cl.FrontEnd().Name(), Port: s.prof.AllocPort}, req)
	var refused RemoteError
	if errors.As(err, &refused) {
		return nil, fmt.Errorf("%w: %s", ErrInsufficient, refused)
	}
	if err != nil {
		return nil, err
	}
	return rd.StringList(), rd.Err()
}
