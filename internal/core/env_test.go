package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/iccl"
	"launchmon/internal/rm"
	"launchmon/internal/vtime"
)

// parseIn runs parseBootEnv inside a process whose environment is env.
func parseIn(t *testing.T, env map[string]string) (*bootEnv, error) {
	t.Helper()
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got *bootEnv
	var perr error
	sim.Go("boot", func() {
		if _, err := cl.Node(0).SpawnProc(cluster.Spec{Exe: "d", Env: env, Main: func(p *cluster.Proc) {
			got, perr = parseBootEnv(p)
		}}); err != nil {
			t.Error(err)
		}
	})
	sim.Run()
	return got, perr
}

func TestBootEnvRoundTrip(t *testing.T) {
	planted := bootEnv{
		feAddr: "fe0:4242", session: 7,
		tree:      iccl.Config{Port: 51014, Fanout: 4},
		collChunk: 4096, collWindow: 8, proctabChunk: 256,
		seedMode: SeedStoreForward, obs: ObsOn,
		health: HealthOptions{Period: 500 * time.Millisecond, Miss: 3},
	}
	for _, fab := range []fabricProfile{beFabric, mwFabric} {
		env := planted.plant(map[string]string{"TOOL_FLAG": "x"}, fab)
		if env["TOOL_FLAG"] != "x" {
			t.Errorf("%s: the tool's own environment was dropped: %v", fab.kind, env)
		}
		if _, ok := env[EnvSeedMode]; ok == fab.mw {
			t.Errorf("%s: %s planted = %v (the MW fabric never sees it)", fab.kind, EnvSeedMode, ok)
		}
		env[rm.EnvNodeID], env[rm.EnvNNodes], env[rm.EnvNodeList] = "2", "3", "node[0-2]"
		got, err := parseIn(t, env)
		if err != nil {
			t.Fatalf("%s: %v", fab.kind, err)
		}
		want := planted
		want.tree.Rank, want.tree.Size = 2, 3
		want.tree.Nodelist = []string{"node0", "node1", "node2"}
		if fab.mw {
			want.seedMode = SeedCutThrough
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("%s: parsed\n %+v\nplanted\n %+v", fab.kind, *got, want)
		}

		// Zero options plant nothing optional, and read back as zero.
		minimal := bootEnv{feAddr: "fe0:1", session: 1, tree: iccl.Config{Port: 51002}}.plant(nil, fab)
		for _, name := range []string{envHealthPeriod, envHealthMiss} {
			if _, ok := minimal[name]; ok {
				t.Errorf("%s: %s planted for a zero option", fab.kind, name)
			}
		}
	}
}

func TestBootEnvRejectsMalformedValuesByName(t *testing.T) {
	good := func() map[string]string {
		env := bootEnv{feAddr: "fe0:1", session: 1, tree: iccl.Config{Port: 51002}}.plant(nil, beFabric)
		env[rm.EnvNodeID], env[rm.EnvNNodes], env[rm.EnvNodeList] = "0", "1", "node0"
		return env
	}
	if _, err := parseIn(t, good()); err != nil {
		t.Fatalf("well-formed environment rejected: %v", err)
	}
	for name, bad := range map[string]string{
		envSession: "", envICCLPort: "", rm.EnvNodeID: "", // required
		envICCLFanout: "wide", envCollChunk: "4k", envCollWindow: "x", envProctabChunk: "-",
		envHealthPeriod: "1", envHealthMiss: "many",
		rm.EnvNNodes: "2", // disagrees with the one-entry node list
	} {
		env := good()
		env[name] = bad
		if name == envHealthMiss {
			env[envHealthPeriod] = "1s"
		}
		_, err := parseIn(t, env)
		if err == nil {
			t.Errorf("%s=%q accepted", name, bad)
		} else if name != rm.EnvNNodes && !strings.Contains(err.Error(), name) {
			t.Errorf("%s=%q: error %q does not name the variable", name, bad, err)
		}
	}
}
