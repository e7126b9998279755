package bench

import (
	"fmt"
	"io"
	"time"

	"launchmon/internal/tools/oss"
)

// t1Row is one O|SS APAI-access measurement pair.
type t1Row struct {
	Nodes     int
	DPCL      time.Duration
	LaunchMON time.Duration
}

// table1Scales are the paper's node counts.
var table1Scales = []int{2, 4, 8, 16, 32}

// table1 regenerates the O|SS APAI access-time comparison: the DPCL path
// (persistent root daemons + full binary parse of the RM launcher) versus
// the LaunchMON integration.
func table1() ([]t1Row, error) {
	rows := make([]t1Row, 0, len(table1Scales))
	for _, n := range table1Scales {
		d, err := measureOSS(n, "dpcl")
		if err != nil {
			return nil, fmt.Errorf("table1 dpcl at %d: %w", n, err)
		}
		l, err := measureOSS(n, "launchmon")
		if err != nil {
			return nil, fmt.Errorf("table1 launchmon at %d: %w", n, err)
		}
		rows = append(rows, t1Row{Nodes: n, DPCL: d, LaunchMON: l})
	}
	return rows, nil
}

func measureOSS(nodes int, which string) (time.Duration, error) {
	var elapsed time.Duration
	_, err := Scenario{Nodes: nodes, FE: func(r *Run) error {
		var inst oss.Instrumentor = &oss.LaunchMONInstrumentor{}
		if which == "dpcl" {
			inst = &oss.DPCLInstrumentor{Svc: r.Dpc}
		}
		j, err := r.startJob("app", nodes, 8, 3*time.Second)
		if err != nil {
			return err
		}
		res, err := inst.AcquireAPAI(r.P, j)
		if err != nil {
			return err
		}
		if len(res.Proctab) != nodes*8 {
			return fmt.Errorf("proctab %d entries, want %d", len(res.Proctab), nodes*8)
		}
		elapsed = res.Elapsed
		return nil
	}}.Run()
	return elapsed, err
}

// printTable1 renders the table in the paper's layout.
func printTable1(w io.Writer, rows []t1Row) {
	fmt.Fprintln(w, "Table 1 — O|SS APAI access times")
	fmt.Fprint(w, "Number of Nodes ")
	for _, r := range rows {
		fmt.Fprintf(w, "%9d", r.Nodes)
	}
	fmt.Fprint(w, "\nDPCL            ")
	for _, r := range rows {
		fmt.Fprintf(w, "%8.2fs", r.DPCL.Seconds())
	}
	fmt.Fprint(w, "\nLaunchMON       ")
	for _, r := range rows {
		fmt.Fprintf(w, "%8.3fs", r.LaunchMON.Seconds())
	}
	fmt.Fprintln(w)
}
