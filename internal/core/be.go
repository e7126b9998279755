package core

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/iccl"
	"launchmon/internal/proctab"
	"launchmon/internal/rm"
	"launchmon/internal/simnet"
)

// BackEnd is the daemon-side session handle of the back-end fabric
// (paper §3.3). Tool back-end daemon mains call BEInit as their first
// act; the returned BackEnd knows the daemon's rank, the full RPDTAB,
// the local task slice, and exposes the ICCL collectives plus the
// collective tool-data plane. All of that machinery is the shared
// daemonSession core (daemon.go), which the middleware fabric reuses.
type BackEnd struct {
	*daemonSession
}

// ErrNotMaster is returned for master-only operations on non-master
// daemons.
var ErrNotMaster = errors.New("core: operation restricted to the master daemon")

// BEInit joins the calling daemon process into its session: the master
// completes the LMONP handshake with the front end, the ICCL tree
// bootstraps, the session seed (RPDTAB + FEData) is distributed to and
// validated at every daemon, and per-daemon info is gathered to the
// master for the ready message (events e7..e10 of the launch critical
// path). Under the default cut-through pipeline the seed streams through
// the forming tree (iccl.BootstrapSeed); the store-forward baseline
// (Options.SeedMode) buffers it at the master and broadcasts after
// bootstrap.
func BEInit(p *cluster.Proc) (*BackEnd, error) {
	d, err := initDaemon(p, beFabric)
	if err != nil {
		return nil, err
	}
	return &BackEnd{daemonSession: d}, nil
}

// MyProctab returns the RPDTAB entries for tasks on this daemon's node.
func (b *BackEnd) MyProctab() proctab.Table { return b.myTab }

// icclConfigFromEnv builds the tree configuration from the environment the
// RM and FE planted.
func icclConfigFromEnv(p *cluster.Proc) (iccl.Config, error) {
	var cfg iccl.Config
	rank, err := strconv.Atoi(p.Env(rm.EnvNodeID))
	if err != nil {
		return cfg, fmt.Errorf("core: bad %s: %w", rm.EnvNodeID, err)
	}
	size, err := strconv.Atoi(p.Env(rm.EnvNNodes))
	if err != nil {
		return cfg, fmt.Errorf("core: bad %s: %w", rm.EnvNNodes, err)
	}
	port, err := strconv.Atoi(p.Env(EnvICCLPort))
	if err != nil {
		return cfg, fmt.Errorf("core: bad %s: %w", EnvICCLPort, err)
	}
	fanout := 0
	if f := p.Env(EnvICCLFanout); f != "" {
		fanout, err = strconv.Atoi(f)
		if err != nil {
			return cfg, fmt.Errorf("core: bad %s: %w", EnvICCLFanout, err)
		}
	}
	nodelist := splitNodeList(p.Env(rm.EnvNodeList))
	if len(nodelist) != size {
		return cfg, fmt.Errorf("core: nodelist has %d entries, NNODES=%d", len(nodelist), size)
	}
	if jt := p.Env(EnvJoinTimeout); jt != "" {
		if cfg.JoinTimeout, err = time.ParseDuration(jt); err != nil {
			return cfg, fmt.Errorf("core: bad %s: %w", EnvJoinTimeout, err)
		}
	}
	cfg.Rank, cfg.Size, cfg.Fanout, cfg.Port, cfg.Nodelist = rank, size, fanout, port, nodelist
	return cfg, nil
}

func parseHostPort(s string) (simnet.Addr, error) {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == ':' {
			port, err := strconv.Atoi(s[i+1:])
			if err != nil {
				return simnet.Addr{}, fmt.Errorf("core: bad address %q", s)
			}
			return simnet.Addr{Host: s[:i], Port: port}, nil
		}
	}
	return simnet.Addr{}, fmt.Errorf("core: bad address %q", s)
}
