package alps

import (
	"errors"
	"fmt"

	"launchmon/internal/cluster"
	"launchmon/internal/lmonp"
	"launchmon/internal/proctab"
	"launchmon/internal/rm"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// star is the rm.Fabric of the apinit star: aprun contacts every node's
// apinit directly, one request per node, and gathers the answers
// asynchronously.
type star struct{ sim *vtime.Sim }

// each issues call(i, node) for every node on a goroutine of its own,
// running submit before each (aprun's serial cost of a submission; the
// remote work overlaps), and returns the first failure among the answers
// in completion order.
func (s star) each(nodes []string, submit func(), call func(i int, node string) error) error {
	results := vtime.NewChan[error](s.sim)
	for i, node := range nodes {
		i, node := i, node
		submit()
		s.sim.Go("aprun-request", func() { results.Send(call(i, node)) })
	}
	for range nodes {
		err, ok := results.Recv()
		if !ok {
			return errors.New("alps: interrupted")
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// starCall performs one request against a node's apinit.
func starCall(from *simnet.Host, node string, req []byte) (*lmonp.Reader, error) {
	return rm.Call(from, simnet.Addr{Host: node, Port: ApinitPort}, req)
}

// Launch submits the task launch to every node's apinit, pipelined: each
// submission costs perNodeSubmit at aprun, the remote forks overlap.
func (s star) Launch(p *cluster.Proc, id int, spec rm.JobSpec, nodes []string) ([]byte, error) {
	tpn := spec.TasksPerNode
	tab := make(proctab.Table, len(nodes)*tpn)
	err := s.each(nodes, func() { p.Compute(perNodeSubmit) }, func(i int, node string) error {
		req := lmonp.AppendUint32(nil, opLaunchTasks)
		req = lmonp.AppendUint32(req, uint32(id))
		req = lmonp.AppendUint32(req, uint32(i*tpn))
		req = lmonp.AppendUint32(req, uint32(tpn))
		req = lmonp.AppendString(req, spec.Exe)
		rd, err := starCall(p.Host(), node, req)
		if err != nil {
			return err
		}
		if n := rd.Uint32(); int(n) != tpn {
			return fmt.Errorf("alps: apinit on %s started %d tasks, want %d", node, n, tpn)
		}
		// Each node fills its own block of the table (placement is by NID:
		// node i owns ranks i*tpn .. i*tpn+tpn-1).
		for k := 0; k < tpn; k++ {
			tab[i*tpn+k] = proctab.ProcDesc{Host: node, Exe: spec.Exe, Rank: int(rd.Uint32()), Pid: int(rd.Uint32())}
		}
		return rd.Err()
	})
	if err != nil {
		return nil, err
	}
	return tab.Encode(), nil
}

// Spawn places one tool daemon per node, pipelined like Launch, merging
// the RM-provided environment (the same contract slurmd honours).
func (s star) Spawn(p *cluster.Proc, id int, nodes []string, spec rm.DaemonSpec) error {
	nidList := joinNIDs(nodes)
	return s.each(nodes, func() { p.Compute(perNodeSubmit) }, func(i int, node string) error {
		perNode := rm.DaemonSpec{Exe: spec.Exe, Args: spec.Args, Env: make(map[string]string, len(spec.Env)+4)}
		for k, v := range spec.Env {
			perNode.Env[k] = v
		}
		perNode.Env[rm.EnvNodeID] = fmt.Sprint(i)
		perNode.Env[rm.EnvNNodes] = fmt.Sprint(len(nodes))
		perNode.Env[rm.EnvNodeList] = nidList
		perNode.Env[rm.EnvJobID] = fmt.Sprint(id)
		req := lmonp.AppendUint32(nil, opSpawnDaemon)
		req = lmonp.AppendUint32(req, uint32(id))
		_, err := starCall(p.Host(), node, rm.AppendDaemonSpec(req, perNode))
		return err
	})
}

// Kill fans the kill to every node's apinit.
func (s star) Kill(from *simnet.Host, id int, nodes []string) error {
	req := lmonp.AppendUint32(nil, opKillJob)
	req = lmonp.AppendUint32(req, uint32(id))
	return s.each(nodes, func() {}, func(_ int, node string) error {
		_, err := starCall(from, node, req)
		return err
	})
}
