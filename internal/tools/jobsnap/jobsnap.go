// Package jobsnap implements Jobsnap (paper §5.1): the first portable,
// scalable tool for gathering the information normally read through
// /proc for every MPI task of a running job — task personality (rank,
// executable), scheduler state (state, program counter, thread count),
// memory statistics (virtual/physical high water mark, locked memory) and
// simple performance metrics (user time, system time, major page faults)
// — presented one line per task.
//
// The tool is deliberately thin (the paper reports ~100 lines of front-end
// and ~500 lines of back-end code): the front end attachAndSpawns
// lightweight daemons, each daemon snapshots its local tasks from the
// RPDTAB and contributes it to the session's collective gather; the
// contributions stream to the front end over the ICCL tree (interior
// daemons forward bounded-size chunks — nothing funnels monolithically
// through the master), where the merged report is the "work-done" result
// of Figure 4's operation sequence.
package jobsnap

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/core"
	"launchmon/internal/lmonp"
	"launchmon/internal/rm"
)

// beExe is the registered executable name of the Jobsnap back-end daemon.
const beExe = "jobsnap_be"

// Install registers the Jobsnap back-end executable on the cluster.
func Install(cl *cluster.Cluster) {
	cl.Register(beExe, beMain)
}

// taskLine is one task's snapshot, merged at the master.
type taskLine struct {
	Rank    int
	Host    string
	Exe     string
	Pid     int
	State   string
	PC      uint64
	Threads int
	VmHWMKB int64
	VmLckKB int64
	UtimeMS int64
	StimeMS int64
	MajFlt  int64
}

// format renders the line in Jobsnap's column layout.
func (l taskLine) format() string {
	return fmt.Sprintf("%6d %-10s %-12s %7d %2s %#x %3d %8dkB %5dkB %8dms %7dms %6d",
		l.Rank, l.Host, l.Exe, l.Pid, l.State, l.PC, l.Threads,
		l.VmHWMKB, l.VmLckKB, l.UtimeMS, l.StimeMS, l.MajFlt)
}

// header is the report's column header.
const header = "  rank host       exe              pid st pc        thr    vmhwm    vmlck     utime    stime majflt"

func encodeLine(l taskLine) []byte {
	b := lmonp.AppendUint32(nil, uint32(l.Rank))
	b = lmonp.AppendString(b, l.Host)
	b = lmonp.AppendString(b, l.Exe)
	b = lmonp.AppendUint32(b, uint32(l.Pid))
	b = lmonp.AppendString(b, l.State)
	b = lmonp.AppendUint64(b, l.PC)
	b = lmonp.AppendUint32(b, uint32(l.Threads))
	b = lmonp.AppendUint64(b, uint64(l.VmHWMKB))
	b = lmonp.AppendUint64(b, uint64(l.VmLckKB))
	b = lmonp.AppendUint64(b, uint64(l.UtimeMS))
	b = lmonp.AppendUint64(b, uint64(l.StimeMS))
	b = lmonp.AppendUint64(b, uint64(l.MajFlt))
	return b
}

func decodeLine(rd *lmonp.Reader) (taskLine, error) {
	l := taskLine{
		Rank: int(rd.Uint32()), Host: rd.String(), Exe: rd.String(), Pid: int(rd.Uint32()),
		State: rd.String(), PC: rd.Uint64(), Threads: int(rd.Uint32()),
		VmHWMKB: int64(rd.Uint64()), VmLckKB: int64(rd.Uint64()),
		UtimeMS: int64(rd.Uint64()), StimeMS: int64(rd.Uint64()), MajFlt: int64(rd.Uint64()),
	}
	return l, rd.Err()
}

// beMain is the Jobsnap back-end daemon (Figure 4, right column):
// LMON_be_init → handshake/ready (inside BEInit) → collect local task
// info → contribute it to the session's collective gather. The "work-done"
// report materializes at the front end as the gather completes.
func beMain(p *cluster.Proc) {
	be, err := core.BEInit(p)
	if err != nil {
		return
	}
	// Collect a snapshot per local task.
	mine := lmonp.AppendUint32(nil, uint32(len(be.MyProctab())))
	for _, d := range be.MyProctab() {
		var line taskLine
		if proc, ok := p.Node().Proc(d.Pid); ok {
			snap := proc.Snapshot()
			line = taskLine{
				Rank: d.Rank, Host: d.Host, Exe: d.Exe, Pid: d.Pid,
				State: snap.State, PC: snap.PC, Threads: snap.Threads,
				VmHWMKB: snap.VmHWMKB, VmLckKB: snap.VmLckKB,
				UtimeMS: snap.UtimeMS, StimeMS: snap.StimeMS, MajFlt: snap.MajFault,
			}
		} else {
			line = taskLine{Rank: d.Rank, Host: d.Host, Exe: d.Exe, Pid: d.Pid, State: "?"}
		}
		mine = lmonp.AppendBytes(mine, encodeLine(line))
	}
	if err := be.Collective().Gather(mine); err != nil {
		return
	}
	be.Finalize()
}

// mergeReport merges the per-daemon snapshot blobs of a Session.Gather
// into the final rank-sorted report.
func mergeReport(blobs [][]byte) (string, error) {
	lines := make([]taskLine, 0, 64)
	for _, blob := range blobs {
		rd := lmonp.NewReader(blob)
		// Each line travels as a length-prefixed record.
		for i, n := 0, rd.Count(4); i < n; i++ {
			l, err := decodeLine(lmonp.NewReader(rd.Bytes()))
			if err != nil {
				return "", err
			}
			lines = append(lines, l)
		}
		if err := rd.Err(); err != nil {
			return "", err
		}
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].Rank < lines[j].Rank })
	var sb strings.Builder
	sb.WriteString(header)
	sb.WriteByte('\n')
	for _, l := range lines {
		sb.WriteString(l.format())
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

// Result is one Jobsnap run's output and timing decomposition (Figure 5
// reports Total and the init→attachAndSpawn share).
type Result struct {
	Report     string
	Lines      int
	Total      time.Duration // whole jobsnap operation
	LaunchTime time.Duration // init → attachAndSpawnDaemons return
}

// RunOptions tune a Jobsnap invocation.
type RunOptions struct {
	// Fanout selects the collection tree shape: 0 (the default) is the
	// flat 1-deep collection the paper measured; a k-ary tree implements
	// the paper's closing suggestion ("we are considering a TBŌN
	// architecture that would reduce the impact of collecting and printing
	// information from each back-end daemon") — with the collective plane,
	// interior daemons forward bounded chunks instead of the master
	// relaying one monolithic payload.
	Fanout int
}

// Run executes Jobsnap against a running job from the calling front-end
// process (Figure 4, left column).
func Run(p *cluster.Proc, jobID int) (Result, error) {
	return RunWithOptions(p, jobID, RunOptions{})
}

// RunWithOptions is Run with explicit collection-tree options.
func RunWithOptions(p *cluster.Proc, jobID int, opts RunOptions) (Result, error) {
	start := p.Sim().Now()
	sess, err := core.AttachAndSpawn(p, core.Options{
		JobID:      jobID,
		Daemon:     rm.DaemonSpec{Exe: beExe},
		ICCLFanout: opts.Fanout,
	})
	if err != nil {
		return Result{}, fmt.Errorf("jobsnap: %w", err)
	}
	launchDone := p.Sim().Now()

	// Blocks until every daemon contributed — the "work-done" point.
	blobs, err := sess.Gather()
	if err != nil {
		return Result{}, err
	}
	report, err := mergeReport(blobs)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Report:     report,
		Total:      p.Sim().Now() - start,
		LaunchTime: launchDone - start,
	}
	res.Lines = strings.Count(res.Report, "\n") - 1 // minus header
	if err := sess.Detach(); err != nil {
		return res, err
	}
	return res, nil
}
