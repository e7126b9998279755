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

// mwPipeRow is one scale's measurement.
type mwPipeRow struct {
	Mode    string        // "cut-through" (the only MW seed pipeline)
	Daemons int           // K middleware daemons (one per fresh node)
	Tasks   int           // application tasks (sizes the seed)
	Ready   time.Duration // LaunchMW call → return (m7..m10 chain complete)
	TableOK bool          // every MW rank's RPDTAB byte-identical to the FE's
}

// mwPipeOpts parameterize the ablation.
type mwPipeOpts struct {
	// JobNodes × TasksPerNode sizes the application job the middleware
	// observes (64 × 16 at full scale: a ~1k-entry RPDTAB at the front
	// end, which the MW seed does not carry).
	JobNodes     int
	TasksPerNode int
	Fanout       int // MW ICCL tree fanout
	// ChunkBytes is the session's ProctabChunkBytes. The MW seed carries
	// no table, so it cannot make the MW streams multi-chunk: it reaches
	// the rows only through the LMON_PROCTAB_CHUNK bytes of the daemon
	// environment (left zero, each Ready moves by 5–10 ns).
	ChunkBytes int
}

// mwPipeline measures the MW seed pipeline at each scale.
func mwPipeline(o mwPipeOpts, scales []int) ([]mwPipeRow, error) {
	return sweep("mw pipeline", scales, func(k int) (mwPipeRow, error) { return measureMWPipe(k, o) })
}

func measureMWPipe(k int, o mwPipeOpts) (mwPipeRow, error) {
	row := mwPipeRow{Mode: core.SeedCutThrough.String(), Daemons: k, Tasks: o.JobNodes * o.TasksPerNode}
	_, err := Scenario{
		Nodes: o.JobNodes + k,
		Opts: core.Options{
			Job:               rm.JobSpec{Exe: "app", Nodes: o.JobNodes, TasksPerNode: o.TasksPerNode},
			Daemon:            rm.DaemonSpec{Exe: "mwp_be"},
			ICCLFanout:        o.Fanout,
			ProctabChunkBytes: o.ChunkBytes,
		},
		// Every MW daemon gathers its table fingerprint to the FE over the
		// MW collective plane — after the launch, so the verification does
		// not perturb the time-to-ready measurement.
		MWExe: "mwp_mw",
		MW: func(p *cluster.Proc, mw *core.Middleware) {
			mw.Collective().Gather(tableHash(mw.Proctab().Encode()))
			mw.Finalize()
		},
		FE: func(r *Run) (err error) {
			row.Ready, _, err = r.timed(func() error {
				_, err := r.Sess.LaunchMW(core.MWOptions{
					Nodes:      k,
					Daemon:     rm.DaemonSpec{Exe: "mwp_mw"},
					ICCLFanout: o.Fanout,
				})
				return err
			})
			if err != nil {
				return err
			}
			hashes, err := r.Sess.MWGather()
			if err != nil {
				return err
			}
			want := string(tableHash(r.Sess.Proctab().Encode()))
			row.TableOK = len(hashes) == k
			for _, h := range hashes {
				if string(h) != want {
					row.TableOK = false
				}
			}
			return nil
		},
	}.Run()
	return row, err
}

// printMWPipeline renders the sweep.
func printMWPipeline(w io.Writer, rows []mwPipeRow) {
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
