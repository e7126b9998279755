package core

import (
	"fmt"
	"strconv"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/hostlist"
	"launchmon/internal/iccl"
	"launchmon/internal/rm"
)

// bootEnv is the daemon bootstrap environment as a data format: what the
// front end plants into a daemon set's environment (plant) and what every
// daemon of the set reads back (parseBootEnv). No other code touches the
// LMON_* variables.
type bootEnv struct {
	feAddr  string // the front end's mux listener, dialed by master daemons
	session int
	// tree is the daemon's ICCL configuration: the FE plants Port and
	// Fanout; Rank, Size and Nodelist are the RM's own variables and only
	// exist on the parse side.
	tree         iccl.Config
	collChunk    int
	collWindow   int
	proctabChunk int
	seedMode     SeedMode // BE fabric only: the MW fabric is always cut-through
	obs          ObsMode
	health       HealthOptions
}

// plant renders e over the tool's own daemon environment.
func (e bootEnv) plant(tool map[string]string, fab fabricProfile) map[string]string {
	env := make(map[string]string, len(tool)+12)
	for k, v := range tool {
		env[k] = v
	}
	env[envFEAddr] = e.feAddr
	env[envSession] = encodeSessionID(e.session)
	env[envICCLPort] = fmt.Sprint(e.tree.Port)
	env[envICCLFanout] = fmt.Sprint(e.tree.Fanout)
	env[envCollChunk] = fmt.Sprint(e.collChunk)
	env[envCollWindow] = fmt.Sprint(e.collWindow)
	env[envProctabChunk] = fmt.Sprint(e.proctabChunk)
	env[envObs] = e.obs.String()
	if !fab.mw {
		env[EnvSeedMode] = e.seedMode.String()
	}
	if e.health.Period > 0 {
		env[envHealthPeriod] = e.health.Period.String()
		env[envHealthMiss] = fmt.Sprint(e.health.Miss)
	}
	return env
}

// parseBootEnv reads the bootstrap environment the RM and the FE planted
// for daemon p.
func parseBootEnv(p *cluster.Proc) (*bootEnv, error) {
	var err error
	// num and dur parse one variable each; an unset optional variable
	// reads as zero, and the first failure sticks.
	num := func(name string, required bool) int {
		v := p.Env(name)
		if err != nil || (v == "" && !required) {
			return 0
		}
		n, aerr := strconv.Atoi(v)
		if aerr != nil {
			err = fmt.Errorf("core: bad %s: %w", name, aerr)
		}
		return n
	}
	dur := func(name string) time.Duration {
		v := p.Env(name)
		if err != nil || v == "" {
			return 0
		}
		d, derr := time.ParseDuration(v)
		if derr != nil {
			err = fmt.Errorf("core: bad %s: %w", name, derr)
		}
		return d
	}
	e := &bootEnv{
		feAddr:       p.Env(envFEAddr),
		session:      num(envSession, true),
		collChunk:    num(envCollChunk, false),
		collWindow:   num(envCollWindow, false),
		proctabChunk: num(envProctabChunk, false),
		health:       HealthOptions{Period: dur(envHealthPeriod), Miss: num(envHealthMiss, false)},
	}
	e.tree = iccl.Config{
		Rank: num(rm.EnvNodeID, true), Size: num(rm.EnvNNodes, true),
		Port: num(envICCLPort, true), Fanout: num(envICCLFanout, false),
	}
	if p.Env(EnvSeedMode) == SeedStoreForward.String() {
		e.seedMode = SeedStoreForward
	}
	if p.Env(envObs) == ObsOn.String() {
		e.obs = ObsOn
	}
	if err != nil {
		return nil, err
	}
	// The RM's node list is a hostlist-compressed range expression
	// ("n[0-999999]") or a plain comma-joined list; expansion interns the
	// shared suffix structure, so a million-node list costs one slice, not
	// a million independent strings.
	e.tree.Nodelist = hostlist.Expand(p.Env(rm.EnvNodeList))
	if len(e.tree.Nodelist) != e.tree.Size {
		return nil, fmt.Errorf("core: nodelist has %d entries, NNODES=%d", len(e.tree.Nodelist), e.tree.Size)
	}
	return e, nil
}
