// Package rsh implements the ad hoc remote-shell daemon launching that
// tools used before LaunchMON (paper §2): a front end sequentially forks
// one rsh/ssh client per target node; each client authenticates against
// the remote node's shell daemon and asks it to exec the tool daemon.
//
// This is the baseline of the STAT start-up experiment (Figure 6). Its two
// scalability pathologies are modeled mechanistically:
//
//   - the launch is sequential and each remote shell costs a connection
//     plus authentication plus remote fork, so total time is linear in the
//     node count (≈0.24 s/node on the paper's Atlas measurements); and
//   - every rsh client remains resident on the front-end node as the
//     daemon's control channel, so the front end's process table fills and
//     fork eventually fails (the paper observed consistent failures at 512
//     nodes).
package rsh

import (
	"errors"
	"fmt"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/lmonp"
	"launchmon/internal/rm"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// Port of the per-node remote shell daemon (sshd-like).
const Port = 22

// The fixed costs of one remote shell invocation: clientForkCost is the
// front-end fork+exec of the rsh client binary (rsh clients are fat),
// authCost connection setup + authentication + shell startup on the remote
// side (matching the paper's ≈0.24 s/node ad hoc launch slope),
// remoteForkCost the remote daemon exec.
const (
	clientForkCost = 6 * time.Millisecond
	authCost       = 225 * time.Millisecond
	remoteForkCost = 4 * time.Millisecond
)

// Service is an installed remote-shell infrastructure.
type Service struct {
	cl *cluster.Cluster
}

// Install boots an sshd-like daemon on every compute node.
func Install(cl *cluster.Cluster) (*Service, error) {
	s := &Service{cl: cl}
	for i := 0; i < cl.NumNodes(); i++ {
		node := cl.Node(i)
		if _, err := node.SpawnSystemProc(cluster.Spec{Exe: "sshd", Main: s.sshdMain(node)}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// sshdMain accepts rsh sessions and execs requested commands locally.
func (s *Service) sshdMain(node *cluster.Node) cluster.ProcMain {
	return func(p *cluster.Proc) {
		rm.Serve(p, Port, func(rd *lmonp.Reader, reply rm.Reply) {
			// Authentication and shell startup happen on the remote side
			// of the connection.
			p.Compute(authCost)
			spec := rm.ReadDaemonSpec(rd)
			if rd.Err() != nil {
				reply(nil, errors.New("bad request"))
				return
			}
			p.Compute(remoteForkCost)
			proc, err := node.SpawnProc(cluster.Spec{Exe: spec.Exe, Args: spec.Args, Env: spec.Env})
			if err != nil {
				reply(nil, err)
				return
			}
			reply(lmonp.AppendUint32(nil, uint32(proc.Pid())), nil)
			// The rsh session lingers as the daemon's stdio/control
			// channel until the daemon exits.
			proc.Wait()
		})
	}
}

// errSpawn wraps remote daemon spawn failures.
var errSpawn = errors.New("rsh: remote spawn failed")

// Spawn launches one daemon on each target node sequentially from the
// calling front-end process, the way pre-LaunchMON MRNet/STAT did. Each
// launch forks a resident rsh client on the caller's node; the spawn fails
// when the front-end process table fills. env[i] extends the daemon
// environment per node.
func (s *Service) Spawn(p *cluster.Proc, nodes []string, exe string, args []string, env []map[string]string) error {
	for i, node := range nodes {
		if err := s.spawnOne(p, node, exe, args, env[i]); err != nil {
			return fmt.Errorf("%w: node %s (%d of %d): %v", errSpawn, node, i+1, len(nodes), err)
		}
	}
	return nil
}

// spawnOne runs one rsh client: fork locally, connect, authenticate,
// remote-exec, then leave the client resident as the control channel.
func (s *Service) spawnOne(p *cluster.Proc, node, exe string, args []string, env map[string]string) error {
	// Fork the rsh client on the front end; it stays alive as the control
	// channel, so the process stays in the table until the daemon dies.
	done := vtime.NewChan[error](p.Sim())
	_, err := p.Spawn(cluster.Spec{Exe: "rsh", Main: func(client *cluster.Proc) {
		client.Compute(clientForkCost)
		// Not rm.Call: the connection outlives the reply, as the daemon's
		// control channel.
		conn, err := client.Host().Dial(simnet.Addr{Host: node, Port: Port})
		if err != nil {
			done.Send(err)
			return
		}
		defer conn.Close()
		req := rm.AppendDaemonSpec(nil, rm.DaemonSpec{Exe: exe, Args: args, Env: env})
		if _, err := rm.Exchange(conn, req); err != nil {
			done.Send(err)
			return
		}
		done.Send(nil)
		// Linger as the daemon's control channel: block until the remote
		// side closes (daemon exit), then terminate.
		for {
			if _, err := conn.RecvMessage(); err != nil {
				return
			}
		}
	}})
	if err != nil {
		return err // fork on the front end failed (process table full)
	}
	res, ok := done.Recv()
	if !ok {
		return errors.New("rsh: client torn down")
	}
	return res
}
