package core

import (
	"errors"

	"launchmon/internal/cluster"
	"launchmon/internal/proctab"
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
// the forming tree (iccl.Forming); the store-forward baseline
// (Options.SeedMode) buffers it at the master and broadcasts after
// bootstrap.
func BEInit(p *cluster.Proc) (*BackEnd, error) {
	d, err := initDaemon(p, &beFabric)
	if err != nil {
		return nil, err
	}
	return &BackEnd{daemonSession: d}, nil
}

// MyProctab returns the RPDTAB entries for tasks on this daemon's node.
func (b *BackEnd) MyProctab() proctab.Table { return b.myTab }
