// Package core is the LaunchMON library proper: the front-end (FE),
// back-end (BE) and middleware (MW) APIs of the paper (§3.2–§3.4), layered
// over the engine (internal/engine), the LMONP protocol (internal/lmonp)
// and the Internal Collective Communication Layer (internal/iccl).
//
// A tool front end — itself a process on the front-end node — calls
// LaunchAndSpawn or AttachAndSpawn to obtain a Session: the binding
// abstraction for one job plus its daemons. Tool daemons call BEInit
// (back-ends, co-located with application tasks) or MWInit (middleware
// daemons on separately allocated nodes) to join the session, learn the
// RPDTAB, and use the minimal collectives.
//
// Tool bootstrap data piggybacks on LaunchMON's own handshakes in both
// directions (Options.FEData rides the FE→master handshake and is
// broadcast with the RPDTAB; BackEnd.SendToFE/Session.RecvFromBE carry
// tool data afterwards), which is what lets tools like STAT distribute
// their MRNet connection information without extra startup round trips.
//
// Bulk tool traffic rides the collective data plane instead of the flat
// master pipe: Session.Broadcast/Gather/Reduce, mirrored by the
// BackEnd.Collective handle, stream chunked payloads over the ICCL
// k-ary tree with interior forwarding and filtered reduction (see
// internal/coll and DESIGN.md "Tool data plane"). The middleware fabric
// has the same plane: Session.MWGather pairs with Middleware.Collective
// over the MW tree, the MW session seed streams cut-through during
// LaunchMW, and MWOptions.Health runs the failure detector over the MW
// topology.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/proctab"
	"launchmon/internal/transport"
)

// Environment variables the FE plants in daemon environments (in addition
// to the rm.Env* variables the RM itself provides).
const (
	// envFEAddr is the front end's listener, dialed by master daemons.
	envFEAddr = "LMON_FE_ADDR"
	// envSession is the session identifier.
	envSession = "LMON_SESSION"
	// envICCLPort is the per-session TCP port of the ICCL tree.
	envICCLPort = "LMON_ICCL_PORT"
	// envICCLFanout is the ICCL tree fanout (0 = flat 1-deep).
	envICCLFanout = "LMON_ICCL_FANOUT"
	// envCollChunk bounds one collective-plane chunk body in bytes
	// (0 or unset selects coll.DefaultChunkBytes).
	envCollChunk = "LMON_COLL_CHUNK"
	// envCollWindow is the per-(link, tag) outstanding-chunk credit
	// window of the collective plane's flow control (0 or unset selects
	// coll.DefaultWindow). Planted from Options.CollWindow.
	envCollWindow = "LMON_COLL_WINDOW"
	// EnvSeedMode selects the session-seed (RPDTAB + FEData) distribution
	// pipeline the BE daemons must match: "cut-through" (or unset) streams
	// rank-sliced chunks through the forming ICCL tree, "store-forward" is
	// the serialized full-table baseline (Options.SeedMode). The MW fabric
	// is always cut-through and never sees this variable.
	EnvSeedMode = "LMON_SEED_MODE"
	// envHealthPeriod is the heartbeat period of the session's failure
	// detector (a Go duration string); unset or empty disables it.
	envHealthPeriod = "LMON_HEALTH_PERIOD"
	// envHealthMiss is the missed-heartbeat threshold.
	envHealthMiss = "LMON_HEALTH_MISS"
	// envProctabChunk bounds re-packed RPDTAB chunk bodies on routed
	// (rank-sliced) seed links (0 or unset selects the proctab default).
	envProctabChunk = "LMON_PROCTAB_CHUNK"
	// envObs enables the session observability plane at every daemon
	// ("on" = per-link metrics registries + tree-harvested snapshots;
	// unset or any other value = off). Planted from Options.Obs.
	envObs = "LMON_OBS"
)

// Cost model constants for the FE-local bookkeeping; together with the
// engine base cost these reproduce the paper's scale-independent 12 ms
// "all other LaunchMON costs".
const (
	feStartCost  = 4 * time.Millisecond // e0→engine spawn bookkeeping
	feFinishCost = 4 * time.Millisecond // ready→e11 session table setup
)

// sessionCounter allocates distinct session ids (and thus ICCL ports)
// within one simulation.
var sessionCounter atomic.Int64

func nextSessionID() int { return int(sessionCounter.Add(1)) }

// encodeSessionID renders a session id for an environment variable at a
// fixed width, so the id's digit count never changes the byte count a
// launch ships over the simulated wire: two sessions with identical
// options must produce identical virtual-time behavior regardless of how
// many sessions ran before them (the don't-let-ties-decide invariant of
// DESIGN.md applied to id allocation). Parsers use strconv.Atoi, which
// accepts the leading zeros.
func encodeSessionID(id int) string { return fmt.Sprintf("%06d", id) }

// icclBasePort is the first port used for ICCL trees; each session uses
// two ports (BE tree, MW tree).
const icclBasePort = 51000

func icclPortFor(session int, mw bool) int {
	p := icclBasePort + session*2
	if mw {
		p++
	}
	return p
}

// FrontEnd is the per-process LaunchMON front-end handle: it owns the one
// transport mux every session of this tool process shares. Any number of
// sessions may be created concurrently from separate goroutines; the mux
// routes each engine / master-daemon dial to its owning session by the
// session ID in the transport hello, so interleaved sessions never cross.
type FrontEnd struct {
	p   *cluster.Proc
	mux *transport.Mux
}

// feRegistry maps FE processes to their FrontEnd so the package-level
// LaunchAndSpawn/AttachAndSpawn entry points share one mux per process.
var (
	feRegMu sync.Mutex
	feReg   = make(map[*cluster.Proc]*FrontEnd)
)

// newFrontEnd returns the process-wide front-end handle for p, creating
// its transport mux on first use.
func newFrontEnd(p *cluster.Proc) (*FrontEnd, error) {
	feRegMu.Lock()
	defer feRegMu.Unlock()
	if fe, ok := feReg[p]; ok {
		return fe, nil
	}
	mux, err := transport.ListenMux(p.Sim(), p.Host())
	if err != nil {
		return nil, err
	}
	fe := &FrontEnd{p: p, mux: mux}
	feReg[p] = fe
	// Reap the mux (and the registry entry) when the process exits, so
	// long simulations with many tool processes do not accumulate muxes.
	p.Sim().Go("fe-mux-reaper", func() {
		p.Wait()
		feRegMu.Lock()
		delete(feReg, p)
		feRegMu.Unlock()
		mux.Close()
	})
	return fe, nil
}

// sessionShared models one session's node-local shared memory segment:
// the immutable columnar RPDTAB index published by the front end once the
// stream validates (what rank-sliced daemons and every MW daemon read the
// full table from), and
// the host→daemon-rank map the seed router consults. Every daemon holds a
// pointer into this one copy instead of materializing its own, which is
// what turns the fabric's table memory from O(K x daemons) into
// O(K/daemon + one shared index).
type sessionShared struct {
	mu     sync.Mutex
	idx    *proctab.Index
	rankOf map[string]int
}

// publishIndex installs the session's RPDTAB index. The front end calls it
// after validating the assembled stream and before relaying the seed end
// marker, so it happens-before any daemon finishing its own seed drain.
func (g *sessionShared) publishIndex(idx *proctab.Index) {
	g.mu.Lock()
	g.idx = idx
	g.mu.Unlock()
}

// index returns the published RPDTAB index (nil before publication).
func (g *sessionShared) index() *proctab.Index {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.idx
}

// hostRanks returns the fabric's host→daemon-rank map, built from the
// launch node list by the first daemon that asks and shared by the rest.
func (g *sessionShared) hostRanks(nodelist []string) map[string]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.rankOf == nil {
		g.rankOf = make(map[string]int, len(nodelist))
		for i, h := range nodelist {
			g.rankOf[h] = i
		}
	}
	return g.rankOf
}

// sharedSegs registers the per-session shared segments by session ID.
var sharedSegs sync.Map

// sharedSegFor returns (creating on first use) the session's shared segment.
func sharedSegFor(session int) *sessionShared {
	v, _ := sharedSegs.LoadOrStore(session, &sessionShared{})
	return v.(*sessionShared)
}

// dropSharedSeg unregisters a closed session's segment. Daemons that
// captured the pointer during init keep a valid reference; only the
// registry entry is released.
func dropSharedSeg(session int) { sharedSegs.Delete(session) }
