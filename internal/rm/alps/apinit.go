package alps

import (
	"errors"
	"fmt"
	"sync"

	"launchmon/internal/cluster"
	"launchmon/internal/lmonp"
	"launchmon/internal/rm"
)

// apinit opcodes (star protocol: aprun contacts every apinit directly).
const (
	opLaunchTasks = 1 // fork tasks for a job; reply with pids
	opSpawnDaemon = 2 // fork one tool daemon; reply with pid
	opKillJob     = 3 // kill all local processes of a job
)

// apinit is the per-node launch daemon; it only ever acts locally (no
// forwarding — the star topology keeps it trivial compared to slurmd). It
// stays goroutine-per-request: its forks block, and nothing pinned runs it
// at a scale where a parked goroutine per request matters.
type apinit struct {
	node *cluster.Node

	mu       sync.Mutex
	jobProcs map[int][]*cluster.Proc
}

func (a *apinit) main(p *cluster.Proc) {
	rm.Serve(p, ApinitPort, func(rd *lmonp.Reader, reply rm.Reply) {
		p.Compute(apinitPerMsg)
		reply(a.handle(rd))
	})
}

// handle serves one request. Each op reads all its fields and then checks
// the Reader once: a request that does not parse starts nothing.
func (a *apinit) handle(rd *lmonp.Reader) ([]byte, error) {
	op, jobid := rd.Uint32(), int(rd.Uint32())
	switch op {
	case opLaunchTasks:
		baseRank, count, exe := int(rd.Uint32()), int(rd.Uint32()), rd.String()
		if rd.Err() != nil {
			return nil, errors.New("bad launch request")
		}
		out := lmonp.AppendUint32(nil, uint32(count))
		for i := 0; i < count; i++ {
			proc, err := a.node.SpawnProc(cluster.Spec{Exe: exe, Passive: true})
			if err != nil {
				return nil, err
			}
			a.track(jobid, proc)
			out = lmonp.AppendUint32(out, uint32(baseRank+i))
			out = lmonp.AppendUint32(out, uint32(proc.Pid()))
		}
		return out, nil
	case opSpawnDaemon:
		spec := rm.ReadDaemonSpec(rd)
		if rd.Err() != nil {
			return nil, errors.New("bad spawn request")
		}
		proc, err := a.node.SpawnProc(cluster.Spec{Exe: spec.Exe, Args: spec.Args, Env: spec.Env})
		if err != nil {
			return nil, err
		}
		a.track(jobid, proc)
		return lmonp.AppendUint32(nil, uint32(proc.Pid())), nil
	case opKillJob:
		if rd.Err() != nil {
			return nil, errors.New("bad kill request")
		}
		a.mu.Lock()
		procs := a.jobProcs[jobid]
		delete(a.jobProcs, jobid)
		a.mu.Unlock()
		for _, proc := range procs {
			proc.Kill()
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("apinit: bad op %d", op)
	}
}

func (a *apinit) track(jobid int, p *cluster.Proc) {
	a.mu.Lock()
	a.jobProcs[jobid] = append(a.jobProcs[jobid], p)
	a.mu.Unlock()
}
