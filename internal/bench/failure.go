package bench

import (
	"fmt"
	"io"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/core"
	"launchmon/internal/health"
	"launchmon/internal/rm"
	"launchmon/internal/vtime"
)

// Failure-detection ablation: how fast does a node loss mid-session reach
// the front end as a DaemonExited callback, and what does the heartbeat
// fabric cost while nothing is failing? Two sweeps:
//
//   - detection latency vs node count (K daemons, kill the deepest-ranked
//     daemon's node; both the fail-stop sever path and the silent
//     link-drop path are measured), plus the time to the watchdog's full
//     session teardown; and
//   - heartbeat overhead vs period (messages/bytes on the wire during an
//     otherwise idle session window).

// failureRow is one detection-latency measurement at a node count.
type failureRow struct {
	Nodes        int
	Period       time.Duration
	Miss         int
	DetectSever  time.Duration // node killed: conns sever (fail-stop path)
	DetectSilent time.Duration // link dropped: heartbeat-miss path
	Teardown     time.Duration // node killed → SessionTornDown at the FE
}

// overheadRow is one heartbeat-cost measurement at a period.
type overheadRow struct {
	Nodes      int
	Period     time.Duration
	Window     time.Duration
	Messages   int64
	Bytes      int64
	MsgsPerSec float64
}

// overheadPeriods are the heartbeat periods of the overhead sweep.
var overheadPeriods = []time.Duration{
	2 * time.Second, time.Second, 500 * time.Millisecond, 200 * time.Millisecond,
}

// failureOpts parameterize the failure ablation.
type failureOpts struct {
	Period time.Duration // heartbeat period
	Miss   int           // miss threshold
	Fanout int           // ICCL/heartbeat tree fanout
	Silent bool          // also measure the silent link-drop path (slower: one extra rig per scale)
}

// failureDetection measures detection and teardown latency for each scale.
func failureDetection(o failureOpts, scales []int) ([]failureRow, error) {
	return sweep("failure detection", scales, func(k int) (failureRow, error) {
		row, err := measureFailure(k, o, false)
		if err == nil && o.Silent {
			var silent failureRow
			if silent, err = measureFailure(k, o, true); err != nil {
				err = fmt.Errorf("silent: %w", err)
			}
			row.DetectSilent = silent.DetectSilent
		}
		return row, err
	})
}

// residentBE is a BE daemon that joins the session and parks until killed
// (the resident shape a monitoring tool has).
func residentBE(p *cluster.Proc, _ *core.BackEnd) {
	vtime.NewChan[int](p.Sim()).Recv()
}

// measureFailure kills (or, silent, partitions) the node of the
// deepest-ranked daemon and times the FE-side callbacks.
func measureFailure(k int, o failureOpts, silent bool) (failureRow, error) {
	row := failureRow{Nodes: k, Period: o.Period, Miss: o.Miss}
	_, err := Scenario{
		Nodes: k,
		Opts: core.Options{
			Job:        rm.JobSpec{Exe: "app", Nodes: k, TasksPerNode: 1},
			Daemon:     rm.DaemonSpec{Exe: "fd_be"},
			ICCLFanout: o.Fanout,
			Health:     core.HealthOptions{Period: o.Period, Miss: o.Miss},
		},
		BE: residentBE,
		FE: func(r *Run) error {
			victim := k - 1 // deepest rank: worst-case report propagation
			nodelist := make([]string, k)
			for _, d := range r.Sess.Daemons() {
				nodelist[d.Rank] = d.Host
			}
			victimHost, parentHost := nodelist[victim], ""
			if victim > 0 {
				parentHost = nodelist[(victim-1)/o.Fanout]
			}

			exitedCh := vtime.NewChan[health.Event](r.Sim)
			tornCh := vtime.NewChan[health.Event](r.Sim)
			r.Sess.RegisterStatusCB(func(ev health.Event) {
				switch ev.Kind {
				case health.EvDaemonExited:
					exitedCh.Send(ev)
				case health.EvSessionTornDown:
					tornCh.Send(ev)
				}
			})
			r.Sim.Sleep(2 * time.Second) // steady state

			failAt := r.Sim.Now()
			if silent {
				// Partition the victim from its heartbeat parent; only the
				// miss threshold can see this.
				r.Cl.Net().DropLink(victimHost, parentHost)
			} else {
				r.Cl.KillNodeByName(victimHost)
			}

			ev, ok := exitedCh.Recv()
			if !ok {
				return fmt.Errorf("no DaemonExited event")
			}
			if ev.Rank != victim {
				return fmt.Errorf("DaemonExited rank %d, want %d", ev.Rank, victim)
			}
			detect := r.Sim.Now() - failAt
			if silent {
				row.DetectSilent = detect
				// Heal the partition so the watchdog's kill tree can reach the
				// victim's subtree again.
				r.Cl.Net().RestoreLink(victimHost, parentHost)
			} else {
				row.DetectSever = detect
			}

			if _, ok := tornCh.Recv(); !ok {
				return fmt.Errorf("no SessionTornDown event")
			}
			row.Teardown = r.Sim.Now() - failAt
			return nil
		},
	}.Run()
	return row, err
}

// heartbeatOverhead measures heartbeat wire traffic during an idle window
// at each period.
func heartbeatOverhead(nodes int, periods []time.Duration, window time.Duration) ([]overheadRow, error) {
	rows := make([]overheadRow, 0, len(periods))
	for _, period := range periods {
		row, err := measureOverhead(nodes, period, window)
		if err != nil {
			return nil, fmt.Errorf("heartbeat overhead at period=%v: %w", period, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func measureOverhead(nodes int, period, window time.Duration) (overheadRow, error) {
	row := overheadRow{Nodes: nodes, Period: period, Window: window}
	_, err := Scenario{
		Nodes: nodes,
		Opts: core.Options{
			Job:        rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: 1},
			Daemon:     rm.DaemonSpec{Exe: "ov_be"},
			ICCLFanout: 32,
			Health:     core.HealthOptions{Period: period},
		},
		BE: residentBE,
		FE: func(r *Run) error {
			r.Sim.Sleep(2 * period) // settle past the priming beats
			_, net, _ := r.timed(func() error {
				r.Sim.Sleep(window)
				return nil
			})
			row.Messages, row.Bytes = net.Messages, net.Bytes
			row.MsgsPerSec = float64(row.Messages) / window.Seconds()
			return r.Sess.Kill()
		},
	}.Run()
	return row, err
}

// printFailure renders the detection-latency rows.
func printFailure(w io.Writer, rows []failureRow) {
	fmt.Fprintln(w, "Ablation — failure detection latency (kill deepest-ranked daemon's node)")
	fmt.Fprintln(w, "daemons   period   miss  detect(sever)  detect(silent)  teardown")
	for _, r := range rows {
		silent := "-"
		if r.DetectSilent > 0 {
			silent = fmt.Sprintf("%.3fs", r.DetectSilent.Seconds())
		}
		fmt.Fprintf(w, "%7d %8s %5d %14.6fs %15s %8.3fs\n",
			r.Nodes, r.Period, r.Miss, r.DetectSever.Seconds(), silent, r.Teardown.Seconds())
	}
}

// printOverhead renders the heartbeat-overhead rows.
func printOverhead(w io.Writer, rows []overheadRow) {
	fmt.Fprintln(w, "Ablation — heartbeat overhead vs period (idle session window)")
	fmt.Fprintln(w, "daemons   period   window    msgs      bytes     msgs/vsec")
	for _, r := range rows {
		fmt.Fprintf(w, "%7d %8s %8s %7d %10d %11.1f\n",
			r.Nodes, r.Period, r.Window, r.Messages, r.Bytes, r.MsgsPerSec)
	}
}
