package bench

import (
	"testing"
	"time"
)

// Host-cost regressions for the event-driven simulator: the budgets that
// let the K=2^20 million sweep fit a 16 GB runner, checked here at small
// scale so `go test` catches a goroutine-per-node regression without a
// bench run (DESIGN.md "Simulator cost model").

// TestIdleRigParksConstantGoroutines boots a lean rig and checks that
// once the boot wave drains, the idle cluster parks a constant number of
// goroutines regardless of node count: resident slurmds return their
// mains (cluster.Spec.Resident) and serve connections from listener
// callbacks, so an idle node holds zero parked goroutines — well under
// the ≤1-per-idle-node budget.
func TestIdleRigParksConstantGoroutines(t *testing.T) {
	const nodes = 256
	r, err := Scenario{Nodes: nodes, Lean: true}.boot()
	if err != nil {
		t.Fatal(err)
	}
	var live int
	r.Sim.After(2*time.Second, func() { live = r.Sim.Live() })
	r.Sim.Run()
	// The sampled count includes the sampler's own timer context at most;
	// 4 leaves headroom for RM housekeeping, not for per-node parking.
	if live > 4 {
		t.Errorf("idle %d-node rig parks %d goroutines, want a node-count-independent handful (≤4)", nodes, live)
	}
}

// TestMillionGoroutineBudgetAtSmallScale runs the million-sweep
// measurement at K=256 and checks the budget the full sweep is pinned to:
// one goroutine per simulated node plus a constant — 262 here, 1.024 per
// node: the K daemon mains, the tool front end and its mux reaper, the
// engine and its job watch, the launcher, the RM's job reaper. The bound
// is that ratio rounded up: the 32 forwarding ranks of this tree each
// holding one more (the seed pumps did) read 1.14. The peak is
// virtual-time-deterministic (vtime.Sim.PeakLive), so a regression here
// reproduces exactly.
func TestMillionGoroutineBudgetAtSmallScale(t *testing.T) {
	const k = 256
	rows, err := launchMillion(launchPipeOpts{TasksPerNode: 1, Fanout: 8}, []int{k})
	if err != nil {
		t.Fatal(err)
	}
	row := rows[0]
	if row.Ready <= 0 {
		t.Fatalf("no ready time measured: %+v", row)
	}
	if row.GoroutinesPeak <= 0 {
		t.Fatalf("no goroutine peak measured: %+v", row)
	}
	if row.GoroutinesPerNode > 1.03 {
		t.Errorf("peak %d goroutines for %d nodes = %.3f per node, budget 1.03",
			row.GoroutinesPeak, k, row.GoroutinesPerNode)
	}
}
