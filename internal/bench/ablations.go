package bench

import (
	"fmt"
	"io"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/core"
	"launchmon/internal/perfmodel"
	"launchmon/internal/rm"
	"launchmon/internal/rm/alps"
	"launchmon/internal/rm/bgl"
	"launchmon/internal/rm/slurm"
)

// This file holds the ablation benchmarks for design decisions the paper
// calls out (DESIGN.md §4): the BG/L RM cost contrast (§4's closing
// observation), ICCL tree fan-out, user-data piggybacking, RPDTAB
// distribution mechanism, and RM debug-event scaling.

// bglRow compares launchAndSpawn across RM cost profiles.
type bglRow struct {
	RM       string
	Measured perfmodel.Breakdown
}

// decompose is how breakdown decomposes; a test wraps it to read the
// timelines too.
var decompose = perfmodel.Decompose

// breakdown launches sc and decomposes the session's e0→e11 timeline.
func breakdown(sc Scenario) (b perfmodel.Breakdown, err error) {
	sc.FE = func(r *Run) error {
		b, err = decompose(r.Sess.Timeline)
		return err
	}
	_, err = sc.Run()
	return b, err
}

// bglAblation measures launchAndSpawn at 64 nodes across the three RM
// implementations, reproducing the paper's note that BG/L's
// T(job)/T(daemon) dominate while LaunchMON's own costs stay put — and
// extending it with the ALPS-like star launcher and with a tree-acked
// SLURM, whose srun handles one ack per child of its launch tree instead
// of one per node: both serialized root costs scaled by Fanout/K. That
// profile bounds what an RM fix could give back, and with it the share of
// time-to-ready that is LaunchMON's to move (EXPERIMENTS.md).
func bglAblation() ([]bglRow, error) {
	const nodes, tpd = 64, 8
	// slurm.Config's defaults: launch-tree fanout 32, 1.8 ms per node
	// spawned, 500 µs per task.
	const fanout, perNode, perTask = 32, 1800 * time.Microsecond, 500 * time.Microsecond
	profiles := []struct {
		name string
		sc   Scenario
	}{
		{"slurm", Scenario{}},
		{"bgl-mpirun", Scenario{Install: bgl.Install}},
		{"alps", Scenario{Install: func(cl *cluster.Cluster) (rm.Manager, error) { return alps.Install(cl) }}},
		{"tree-acked", Scenario{Slurm: slurm.Config{
			PerNodeSpawnRootCost: perNode * fanout / nodes,
			PerTaskRootCost:      perTask * fanout / nodes,
		}}},
	}
	var rows []bglRow
	for _, pr := range profiles {
		sc := pr.sc
		sc.Nodes, sc.Lean = nodes, true // the launch path alone, whatever the RM
		sc.Opts = core.Options{
			Job:    rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: tpd},
			Daemon: rm.DaemonSpec{Exe: "abl_be"},
		}
		b, err := breakdown(sc)
		if err != nil {
			return nil, fmt.Errorf("rm ablation (%s): %w", pr.name, err)
		}
		rows = append(rows, bglRow{RM: pr.name, Measured: b})
	}
	return rows, nil
}

// fanoutRow is one ICCL tree shape measurement.
type fanoutRow struct {
	Fanout   int // 0 = flat (1-deep)
	Measured perfmodel.Breakdown
}

// ablationFanout measures launchAndSpawn at 128 daemons across ICCL tree
// fan-outs: flat trees concentrate the handshake at the master daemon,
// k-ary trees distribute it.
func ablationFanout() ([]fanoutRow, error) {
	const nodes, tpd = 128, 8
	var rows []fanoutRow
	for _, fanout := range []int{0, 4, 16, 32} {
		b, err := breakdown(Scenario{Nodes: nodes, Opts: core.Options{
			Job:        rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: tpd},
			Daemon:     rm.DaemonSpec{Exe: "abl_be"},
			ICCLFanout: fanout,
		}})
		if err != nil {
			return nil, fmt.Errorf("fanout ablation (%d): %w", fanout, err)
		}
		rows = append(rows, fanoutRow{Fanout: fanout, Measured: b})
	}
	return rows, nil
}

// piggybackRow compares delivering tool bootstrap data piggybacked on the
// handshake versus as a separate post-ready exchange.
type piggybackRow struct {
	Mode  string
	Total time.Duration
}

// ablationPiggyback quantifies the startup saving of piggybacking tool
// data on LaunchMON's handshake (paper §3.2's pack/unpack design) against
// a separate FE→master→broadcast round after ready.
func ablationPiggyback() ([]piggybackRow, error) {
	const nodes, tpd = 128, 8
	payload := make([]byte, 4096)
	job := rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: tpd}

	// Piggybacked: FEData rides the handshake and the RPDTAB broadcast.
	pig, err := Scenario{
		Nodes: nodes,
		Opts:  core.Options{Job: job, Daemon: rm.DaemonSpec{Exe: "pig_be"}, FEData: payload},
		BE: func(p *cluster.Proc, be *core.BackEnd) {
			if len(be.FEData()) == len(payload) {
				be.Finalize()
			}
		},
	}.Run()
	if err != nil {
		return nil, fmt.Errorf("piggyback ablation: %w", err)
	}

	// Separate: empty handshake, then an explicit usr-data message that
	// the master broadcasts, with a confirmation gather back to the FE.
	var exchange time.Duration
	sep, err := Scenario{
		Nodes: nodes,
		Opts:  core.Options{Job: job, Daemon: rm.DaemonSpec{Exe: "sep_be"}},
		BE: func(p *cluster.Proc, be *core.BackEnd) {
			var data []byte
			var err error
			if be.AmIMaster() {
				if data, err = be.RecvFromFE(); err != nil {
					return
				}
			}
			if _, err := be.Broadcast(data); err != nil {
				return
			}
			if _, err := be.Gather([]byte{1}); err != nil {
				return
			}
			if be.AmIMaster() {
				be.SendToFE([]byte("ok"))
			}
			be.Finalize()
		},
		FE: func(r *Run) (err error) {
			exchange, _, err = r.timed(func() error {
				if err := r.Sess.SendToBE(payload); err != nil {
					return err
				}
				_, err := r.Sess.RecvFromBE()
				return err
			})
			return err
		},
	}.Run()
	if err != nil {
		return nil, fmt.Errorf("separate-exchange ablation: %w", err)
	}
	return []piggybackRow{
		{Mode: "piggybacked", Total: pig.Ready},
		{Mode: "separate", Total: sep.Ready + exchange},
	}, nil
}

// debugEventsRow shows engine tracing cost under different RM debug-event
// behaviours.
type debugEventsRow struct {
	Mode    string
	Daemons int
	Tracing time.Duration
}

// ablationDebugEvents contrasts a fixed-event RM (SLURM after the fix the
// paper describes) with a hypothetical RM whose debug events grow with
// scale — the pathology the LaunchMON work got fixed in SLURM.
func ablationDebugEvents() ([]debugEventsRow, error) {
	var rows []debugEventsRow
	for _, scale := range []int{16, 64, 128} {
		for _, mode := range []string{"fixed", "scaling"} {
			events := 11
			if mode == "scaling" {
				events = 11 + scale/2 // grows with node count
			}
			b, err := breakdown(Scenario{
				Nodes: scale,
				Slurm: slurm.Config{DebugEvents: events},
				Opts: core.Options{
					Job:    rm.JobSpec{Exe: "app", Nodes: scale, TasksPerNode: 8},
					Daemon: rm.DaemonSpec{Exe: "dbg_be"},
				},
			})
			if err != nil {
				return nil, fmt.Errorf("debug-events ablation: %w", err)
			}
			rows = append(rows, debugEventsRow{Mode: mode, Daemons: scale, Tracing: b.Tracing})
		}
	}
	return rows, nil
}

// printBGL renders the RM cost-profile rows.
func printBGL(w io.Writer, rows []bglRow) {
	fmt.Fprintln(w, "Ablation — RM cost profile (64 daemons, 8 tasks/daemon)")
	fmt.Fprintln(w, "rm           T(job)    T(daemon) tracing   overlap   other     total     lmon%")
	for _, r := range rows {
		m := r.Measured
		fmt.Fprintf(w, "%-12s %8.3fs %8.3fs %8.3fs %8.3fs %8.3fs %8.3fs %6.2f\n", r.RM,
			m.Job.Seconds(), m.DaemonSpawn.Seconds(), m.Tracing.Seconds(),
			m.Overlap.Seconds(), m.Other.Seconds(), m.Total.Seconds(), 100*m.LaunchMONShare())
	}
}

// printFanout renders the ICCL fan-out rows.
func printFanout(w io.Writer, rows []fanoutRow) {
	fmt.Fprintln(w, "Ablation — ICCL fan-out (128 daemons)")
	fmt.Fprintln(w, "fanout    setup     collective overlap   other     total     lmon%")
	for _, r := range rows {
		m := r.Measured
		fmt.Fprintf(w, "%-9s %8.3fs %8.3fs %8.3fs %8.3fs %8.3fs %6.2f\n", fanoutName(r.Fanout), m.Setup.Seconds(),
			m.Collective.Seconds(), m.Overlap.Seconds(), m.Other.Seconds(), m.Total.Seconds(), 100*m.LaunchMONShare())
	}
}

// fanoutName labels a tree fanout column; 0 is the flat (1-deep) tree.
func fanoutName(fanout int) string {
	if fanout == 0 {
		return "flat"
	}
	return fmt.Sprint(fanout)
}

// printPiggyback renders the piggybacking rows.
func printPiggyback(w io.Writer, rows []piggybackRow) {
	fmt.Fprintln(w, "Ablation — tool data piggybacking (128 daemons, 4 KiB payload)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %8.3fs\n", r.Mode, r.Total.Seconds())
	}
}

// printDebugEvents renders the debug-event scaling rows.
func printDebugEvents(w io.Writer, rows []debugEventsRow) {
	fmt.Fprintln(w, "Ablation — RM debug-event scaling (engine tracing cost)")
	fmt.Fprintln(w, "mode     daemons  tracing")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %7d %8.3fs\n", r.Mode, r.Daemons, r.Tracing.Seconds())
	}
}
