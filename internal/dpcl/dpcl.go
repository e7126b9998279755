// Package dpcl simulates the Dynamic Probe Class Library substrate that
// Open|SpeedShop builds on (paper §5.3): persistent, root-privileged
// "super daemons" pre-installed on every node, a client library that
// connects to them, and a general-purpose binary-instrumentation path to
// process information.
//
// Its defining costs for the paper's Table 1 are that DPCL treats the RM
// launcher like any instrumentation target — including parsing its binary
// fully (~33.5 s) — before it can read the APAI proctable, and that this
// cost is essentially independent of job size. The security/deployment
// problems of the persistent-root-daemon model (paper §2) are what
// LaunchMON's on-demand launching removes.
package dpcl

import (
	"errors"
	"fmt"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/lmonp"
	"launchmon/internal/rm"
	"launchmon/internal/simnet"
)

// port of the persistent dpcld super daemon.
const port = 7878

// attachCost is the ptrace attach + bootstrap of the instrumentation
// runtime in the target.
const attachCost = 150 * time.Millisecond

// The costs of DPCL's instrumentation path: binaryParseCost is the full
// parse of a target binary before any instrumentation (33.5 s for the RM
// launcher — the Table 1 constant), perNodeSessionCost the per-node daemon
// session setup the client pays when widening an experiment (Table 1's
// slight growth from 33.77 s at 2 nodes to 34.66 s at 32).
const (
	binaryParseCost    = 33500 * time.Millisecond
	perNodeSessionCost = 28 * time.Millisecond
)

// Service is an installed DPCL infrastructure.
type Service struct {
	cl *cluster.Cluster
}

// Install boots a persistent dpcld on the front end and on every compute
// node (the root-daemon deployment model).
func Install(cl *cluster.Cluster) (*Service, error) {
	s := &Service{cl: cl}
	nodes := []*cluster.Node{cl.FrontEnd()}
	for i := 0; i < cl.NumNodes(); i++ {
		nodes = append(nodes, cl.Node(i))
	}
	for _, n := range nodes {
		n := n
		if _, err := n.SpawnSystemProc(cluster.Spec{Exe: "dpcld", Main: s.dpcldMain(n)}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// dpcld opcodes.
const (
	opAPAI    = 1 // attach to pid, parse binary, read MPIR_proctable
	opSession = 2 // set up an instrumentation session on this node
)

func (s *Service) dpcldMain(node *cluster.Node) cluster.ProcMain {
	return func(p *cluster.Proc) {
		rm.Serve(p, port, func(rd *lmonp.Reader, reply rm.Reply) {
			reply(s.handle(p, node, rd))
		})
	}
}

func (s *Service) handle(p *cluster.Proc, node *cluster.Node, rd *lmonp.Reader) ([]byte, error) {
	switch op := rd.Uint32(); op {
	case opAPAI:
		pid := int(rd.Uint32())
		if rd.Err() != nil {
			return nil, errors.New("bad request")
		}
		target, ok := node.Proc(pid)
		if !ok {
			return nil, fmt.Errorf("no process %d", pid)
		}
		tr, err := target.Attach()
		if err != nil {
			return nil, err
		}
		defer tr.Detach()
		// DPCL's general-purpose path: attach, then parse the target
		// binary in full before touching any symbol.
		p.Compute(attachCost)
		p.Compute(binaryParseCost)
		tab, err := rm.ProctabFromLauncher(tr)
		if err != nil {
			return nil, err
		}
		return lmonp.AppendBytes(nil, tab.Encode()), nil
	case opSession:
		p.Compute(perNodeSessionCost)
		return nil, nil
	default:
		return nil, errors.New("bad op")
	}
}

// Client errors.
var errDPCL = errors.New("dpcl: request failed")

// call performs one dpcld request from p against node's daemon.
func call(p *cluster.Proc, node string, req []byte) (*lmonp.Reader, error) {
	rd, err := rm.Call(p.Host(), simnet.Addr{Host: node, Port: port}, req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errDPCL, err)
	}
	return rd, nil
}

// APAIViaDPCL performs the DPCL-style APAI access from the calling
// process: connect to the local dpcld, have it attach to the launcher,
// parse its binary in full, and return the proctable bytes.
func (s *Service) APAIViaDPCL(p *cluster.Proc, launcherNode string, launcherPid int) ([]byte, error) {
	req := lmonp.AppendUint32(nil, opAPAI)
	rd, err := call(p, launcherNode, lmonp.AppendUint32(req, uint32(launcherPid)))
	if err != nil {
		return nil, err
	}
	return rd.Bytes(), rd.Err()
}

// OpenNodeSession sets up an instrumentation session with one node's
// persistent daemon (the per-node serial step of widening an experiment).
func (s *Service) OpenNodeSession(p *cluster.Proc, node string) error {
	_, err := call(p, node, lmonp.AppendUint32(nil, opSession))
	return err
}
