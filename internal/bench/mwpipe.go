package bench

import (
	"fmt"
	"io"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/core"
	"launchmon/internal/rm"
)

// Middleware launch-pipeline sweep: time-to-ready of LaunchMW under the
// cut-through MW seed (the FE relays the seed to the MW master while the
// RM is still spawning its siblings, and the master streams it through
// the still-forming MW tree). Every run verifies over the MW collective
// plane that each MW rank reads an RPDTAB byte-identical to the FE's —
// the same never-trade-correctness-for-overlap check as the BE
// launch-pipeline ablation.

// MWPipeRow is one scale's measurement.
type MWPipeRow struct {
	Mode    string        // "cut-through" (the only MW seed pipeline)
	Daemons int           // K middleware daemons (one per fresh node)
	Tasks   int           // application tasks (sizes the seed)
	Ready   time.Duration // LaunchMW call → return (m7..m10 chain complete)
	TableOK bool          // every MW rank's RPDTAB byte-identical to the FE's
}

// MWScales are the middleware daemon counts of the pipeline sweep.
var MWScales = []int{64, 1024, 16384}

// MWPipeOpts parameterize the ablation.
type MWPipeOpts struct {
	// JobNodes sizes the application job the middleware observes
	// (default 64 at 16 tasks per node: a ~1k-entry RPDTAB, so the MW
	// seed transfer is meaningfully multi-chunk without the K=16384
	// point holding gigabytes per host).
	JobNodes     int
	TasksPerNode int
	Fanout       int // MW ICCL tree fanout (default 32)
	// ChunkBytes bounds one RPDTAB chunk (default 4 KiB so the sweep's
	// seed streams are multi-chunk at every scale).
	ChunkBytes int
}

func (o MWPipeOpts) withDefaults() MWPipeOpts {
	if o.JobNodes == 0 {
		o.JobNodes = 64
	}
	if o.TasksPerNode == 0 {
		o.TasksPerNode = 16
	}
	if o.Fanout == 0 {
		o.Fanout = 32
	}
	if o.ChunkBytes == 0 {
		o.ChunkBytes = 4 << 10
	}
	return o
}

// MWPipeline measures the MW seed pipeline at each scale.
func MWPipeline(opts MWPipeOpts, scales []int) ([]MWPipeRow, error) {
	o := opts.withDefaults()
	rows := make([]MWPipeRow, 0, len(scales))
	for _, k := range scales {
		row, err := measureMWPipe(k, o)
		if err != nil {
			return nil, fmt.Errorf("mw pipeline at K=%d: %w", k, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func measureMWPipe(k int, o MWPipeOpts) (MWPipeRow, error) {
	row := MWPipeRow{Mode: core.SeedCutThrough.String(), Daemons: k, Tasks: o.JobNodes * o.TasksPerNode}
	r, err := NewRig(RigOptions{Nodes: o.JobNodes + k})
	if err != nil {
		return row, err
	}
	registerNoopBE(r.Cl, "mwp_be")
	// Every MW daemon gathers its table fingerprint to the FE over the MW
	// collective plane — after the launch, so the verification does not
	// perturb the time-to-ready measurement.
	r.Cl.Register("mwp_mw", func(p *cluster.Proc) {
		mw, err := core.MWInit(p)
		if err != nil {
			return
		}
		mw.Collective().Gather(tableHash(mw.Proctab().Encode()))
		mw.Finalize()
	})
	err = r.RunFE(func(p *cluster.Proc) error {
		sess, err := core.LaunchAndSpawn(p, core.Options{
			Job:               rm.JobSpec{Exe: "app", Nodes: o.JobNodes, TasksPerNode: o.TasksPerNode},
			Daemon:            rm.DaemonSpec{Exe: "mwp_be"},
			ICCLFanout:        o.Fanout,
			ProctabChunkBytes: o.ChunkBytes,
		})
		if err != nil {
			return err
		}
		t0 := p.Sim().Now()
		if _, err := sess.LaunchMW(core.MWOptions{
			Nodes:      k,
			Daemon:     rm.DaemonSpec{Exe: "mwp_mw"},
			ICCLFanout: o.Fanout,
		}); err != nil {
			return err
		}
		row.Ready = p.Sim().Now() - t0
		hashes, err := sess.MWGather()
		if err != nil {
			return err
		}
		want := string(tableHash(sess.Proctab().Encode()))
		row.TableOK = len(hashes) == k
		for _, h := range hashes {
			if string(h) != want {
				row.TableOK = false
			}
		}
		return nil
	})
	return row, err
}

// PrintMWPipeline renders the sweep.
func PrintMWPipeline(w io.Writer, rows []MWPipeRow) {
	fmt.Fprintln(w, "MW launch pipeline (LaunchMW time to ready, byte-identical RPDTAB at every MW rank)")
	fmt.Fprintln(w, "mode           mw-daemons    tasks   ready      tables")
	for _, r := range rows {
		ok := "identical"
		if !r.TableOK {
			ok = "MISMATCH"
		}
		fmt.Fprintf(w, "%-14s %10d %8d %8.3fs  %s\n", r.Mode, r.Daemons, r.Tasks, r.Ready.Seconds(), ok)
	}
}
