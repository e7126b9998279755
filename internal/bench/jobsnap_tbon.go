package bench

import (
	"fmt"
	"io"
	"time"
)

// jobsnapTreeRow compares Jobsnap's flat collection against the TBŌN-style
// k-ary gather the paper proposes as future work.
type jobsnapTreeRow struct {
	Fanout  int // 0 = flat (the paper's measured configuration)
	Daemons int
	Total   time.Duration
	Launch  time.Duration
}

// ablationJobsnapTree measures Jobsnap at 512 daemons with flat and k-ary
// collection trees — the paper's §5.1 closing suggestion quantified.
func ablationJobsnapTree() ([]jobsnapTreeRow, error) {
	const daemons, tpd = 512, 8
	var rows []jobsnapTreeRow
	for _, fanout := range []int{0, 8, 32} {
		res, err := measureJobsnap(daemons, tpd, fanout)
		if err != nil {
			return nil, fmt.Errorf("jobsnap tree ablation (fanout %d): %w", fanout, err)
		}
		rows = append(rows, jobsnapTreeRow{Fanout: fanout, Daemons: daemons, Total: res.Total, Launch: res.LaunchTime})
	}
	return rows, nil
}

// printJobsnapTree renders the comparison.
func printJobsnapTree(w io.Writer, rows []jobsnapTreeRow) {
	fmt.Fprintln(w, "Ablation — Jobsnap collection tree (512 daemons, 8 tasks/daemon)")
	fmt.Fprintln(w, "fanout    total      launch")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %9.3fs %9.3fs\n", fanoutName(r.Fanout), r.Total.Seconds(), r.Launch.Seconds())
	}
}
