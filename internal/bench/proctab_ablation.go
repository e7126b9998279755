package bench

import (
	"fmt"
	"io"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/core"
	"launchmon/internal/lmonp"
	"launchmon/internal/rm"
	"launchmon/internal/simnet"
)

// proctabRow compares RPDTAB distribution mechanisms.
type proctabRow struct {
	Mode     string
	Daemons  int
	Duration time.Duration
}

// ablationProctab contrasts LaunchMON's RPDTAB broadcast over the ICCL
// tree against the mechanism STAT used before the integration (paper
// §5.2): every daemon independently reading the table from a single
// shared file on the front end, which serializes at the file server.
func ablationProctab() ([]proctabRow, error) {
	var rows []proctabRow
	for _, n := range []int{64, 256} {
		bcast, err := measureProctabBroadcast(n)
		if err != nil {
			return nil, fmt.Errorf("proctab ablation bcast at %d: %w", n, err)
		}
		rows = append(rows, proctabRow{Mode: "iccl-broadcast", Daemons: n, Duration: bcast})
		file, err := measureProctabSharedFile(n)
		if err != nil {
			return nil, fmt.Errorf("proctab ablation file at %d: %w", n, err)
		}
		rows = append(rows, proctabRow{Mode: "shared-file", Daemons: n, Duration: file})
	}
	return rows, nil
}

// measureProctabBroadcast times the RPDTAB reaching every daemon via the
// ICCL broadcast: the daemons synchronize with a barrier, the master
// stamps the clock, the table is broadcast, and a closing barrier bounds
// the last delivery.
func measureProctabBroadcast(n int) (time.Duration, error) {
	return timedDistribution(n, "pt_be", nil, func(p *cluster.Proc, be *core.BackEnd) error {
		var seed []byte
		if be.AmIMaster() {
			seed = be.Proctab().Encode()
		}
		_, err := be.Broadcast(seed)
		return err
	})
}

// timedDistribution launches n daemons that run fetch between two
// barriers, and reads back the duration the master measured across them.
func timedDistribution(n int, exe string, boot func(*cluster.Cluster) error, fetch func(*cluster.Proc, *core.BackEnd) error) (time.Duration, error) {
	var dur time.Duration
	sc := Scenario{Nodes: n, Boot: boot, Opts: core.Options{
		Job:    rm.JobSpec{Exe: "app", Nodes: n, TasksPerNode: 8},
		Daemon: rm.DaemonSpec{Exe: exe},
	}}
	sc.BE = func(p *cluster.Proc, be *core.BackEnd) {
		if err := be.Barrier(); err != nil {
			return
		}
		start := p.Sim().Now()
		if err := fetch(p, be); err != nil {
			return
		}
		if err := be.Barrier(); err != nil {
			return
		}
		if be.AmIMaster() {
			be.SendToFE([]byte(fmt.Sprint(int64(p.Sim().Now() - start))))
		}
	}
	sc.FE = func(r *Run) error {
		raw, err := r.Sess.RecvFromBE()
		if err != nil {
			return err
		}
		var ns int64
		if _, err := fmt.Sscanf(string(raw), "%d", &ns); err != nil {
			return err
		}
		dur = time.Duration(ns)
		return nil
	}
	_, err := sc.Run()
	return dur, err
}

// measureProctabSharedFile times every daemon fetching the table from one
// front-end "file server" (reads serialize at the server, the old STAT
// mechanism's bottleneck).
func measureProctabSharedFile(n int) (time.Duration, error) {
	const fileServerPort = 9999
	const perReadCost = 2 * time.Millisecond // open+read+close of the shared file
	// The "NFS server" serving the shared proctab file is a system service
	// present from boot; its serialized per-read cost is the mechanism
	// under test.
	nfsd := func(cl *cluster.Cluster) error {
		_, err := cl.FrontEnd().SpawnSystemProc(cluster.Spec{Exe: "nfsd", Main: func(p *cluster.Proc) {
			l, err := p.Host().Listen(fileServerPort)
			if err != nil {
				return
			}
			blob := make([]byte, 40+16*n) // proctab-file-sized payload
			for {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				p.Compute(perReadCost) // server-side read serialization
				lmonp.WriteFrame(conn, blob)
				conn.Close()
			}
		}})
		return err
	}
	return timedDistribution(n, "ptf_be", nfsd, func(p *cluster.Proc, be *core.BackEnd) error {
		conn, err := p.Host().Dial(simnet.Addr{Host: "fe0", Port: fileServerPort})
		if err != nil {
			return err
		}
		_, err = lmonp.RecvFrame(conn)
		conn.Close()
		return err
	})
}

// printProctabAblation renders the comparison.
func printProctabAblation(w io.Writer, rows []proctabRow) {
	fmt.Fprintln(w, "Ablation — RPDTAB distribution (8 tasks/daemon)")
	fmt.Fprintln(w, "mode            daemons  time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %7d %8.3fs\n", r.Mode, r.Daemons, r.Duration.Seconds())
	}
}
