// Package rm defines the resource-manager abstraction LaunchMON builds on:
// starting a parallel job under tracer control, the MPIR-style Automatic
// Process Acquisition Interface (APAI) contract, scalable co-located tool
// daemon spawning, and extra-node allocation for middleware daemons.
//
// Concrete managers (internal/rm/slurm, internal/rm/alps, internal/rm/bgl)
// install their node daemons onto a simulated cluster and implement this
// interface; the LaunchMON engine is written purely against it, which is
// the m×n → m+n portability argument of the paper made concrete.
//
// What the managers have in common is written here once — Skeleton: the
// job registry, the job handle, the APAI launcher process and the
// allocation service, over the Call/Serve request convention. A backend
// supplies a Fabric (how a request reaches its node daemons: slurm's
// k-ary slurmd tree, alps' star of apinit daemons) and a Profile (names
// and virtual-time costs; bgl is the slurm fabric under another profile).
package rm

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"launchmon/internal/cluster"
	"launchmon/internal/lmonp"
	"launchmon/internal/proctab"
)

// Well-known environment variables the RM provides to spawned tool
// daemons. They correspond to the bootstrap information real LaunchMON
// passes via the RM's environment plumbing.
const (
	// EnvNodeID is the daemon's 0-based index within the launch node list
	// (doubles as the ICCL rank).
	EnvNodeID = "LMON_NODEID"
	// EnvNNodes is the total number of daemons launched together.
	EnvNNodes = "LMON_NNODES"
	// EnvNodeList is the comma-joined node list of the launch.
	EnvNodeList = "LMON_NODELIST"
	// EnvJobID identifies the target job.
	EnvJobID = "LMON_JOBID"
)

// MPIR symbol names exposed by launcher processes (the APAI contract).
const (
	symProctabLen    = "MPIR_proctable_size"   // entry count
	symProctabChunks = "MPIR_proctable_chunks" // chunk count (chunked publication)
	SymDebugState    = "MPIR_debug_state"      // launch progress indicator
	BPName           = "MPIR_Breakpoint"       // debug-event reason at launch-done
)

// symProctabChunk names the i-th chunk symbol of a chunked RPDTAB
// publication (rank-sorted bounded chunks, see PublishProctab).
func symProctabChunk(i int) string { return fmt.Sprintf("MPIR_proctable_chunk_%d", i) }

// proctabChunkBytes bounds one published proctab chunk. It mirrors the
// chunk granularity of the rest of the launch pipeline, so the engine's
// per-read transient stays O(chunk) no matter the job scale.
const proctabChunkBytes = proctab.DefaultChunkBytes

// JobSpec describes a parallel application launch.
type JobSpec struct {
	Name         string // job name (diagnostics)
	Exe          string // application executable name
	Nodes        int    // number of compute nodes
	TasksPerNode int    // MPI tasks per node
}

// Tasks returns the total task count.
func (s JobSpec) Tasks() int { return s.Nodes * s.TasksPerNode }

// DaemonSpec describes tool daemons for the RM to spawn (one per node).
type DaemonSpec struct {
	Exe  string // registered executable name
	Args []string
	Env  map[string]string // session bootstrap environment (LMON_*)
}

// AppendDaemonSpec appends the wire record of a daemon request — exe, args,
// env — that every launch path below the front end carries: the engine's
// LMONP requests, slurmd's tree request, aprun's per-node request and the
// rsh client's. The environment goes out in key order, so the bytes are a
// function of the spec.
func AppendDaemonSpec(b []byte, s DaemonSpec) []byte {
	kv := make([][2]string, 0, len(s.Env))
	for k, v := range s.Env {
		kv = append(kv, [2]string{k, v})
	}
	slices.SortFunc(kv, func(a, b [2]string) int { return strings.Compare(a[0], b[0]) })
	b = lmonp.AppendString(b, s.Exe)
	b = lmonp.AppendStringList(b, s.Args)
	return lmonp.AppendStringMap(b, kv)
}

// ReadDaemonSpec reads the record AppendDaemonSpec wrote (the caller
// checks rd.Err).
func ReadDaemonSpec(rd *lmonp.Reader) DaemonSpec {
	s := DaemonSpec{Exe: rd.String(), Args: rd.StringList()}
	kv := rd.StringMap()
	s.Env = make(map[string]string, len(kv))
	for _, e := range kv {
		s.Env[e[0]] = e[1]
	}
	return s
}

// Errors common to manager implementations.
var (
	ErrNoSuchJob     = errors.New("rm: no such job")
	ErrInsufficient  = errors.New("rm: insufficient nodes available")
	ErrAlreadyKilled = errors.New("rm: job already terminated")
)

// Job is a handle onto one running (or launching) parallel job, obtained
// from a Manager. The launcher process it wraps is the tracee of the
// LaunchMON engine.
type Job interface {
	// ID returns the RM-assigned job id.
	ID() int
	// LauncherProc returns the job-launcher process (srun/mpirun); the
	// engine attaches its tracer to it.
	LauncherProc() *cluster.Proc
	// Start releases a held launcher (launch mode spawns the launcher held
	// so the engine can attach before it runs).
	Start()
	// Nodes returns the node names of the job's allocation (empty until the
	// launch reaches MPIR_Breakpoint).
	Nodes() []string
	// SpawnDaemons scalably spawns one tool daemon per job node through the
	// RM's native launch fabric, merging extra per-node variables into
	// spec.Env. It blocks until every daemon process exists.
	SpawnDaemons(spec DaemonSpec) error
	// AllocateAndSpawn allocates n fresh nodes (disjoint from the job's)
	// and spawns one daemon per node; it returns the new node names.
	AllocateAndSpawn(n int, spec DaemonSpec) ([]string, error)
	// Kill terminates the job's tasks and all daemons spawned through it.
	Kill() error
}

// Manager abstracts one resource-manager installation on a cluster.
type Manager interface {
	// StartJobHeld creates the job-launcher process on the front-end node
	// in the held state and registers the job. The caller attaches a tracer
	// and then calls Job.Start.
	StartJobHeld(spec JobSpec) (Job, error)
	// StartJob creates and immediately starts a job (no tracer), the way a
	// user would from a shell; tools attach to it later.
	StartJob(spec JobSpec) (Job, error)
	// FindJob looks up a running job by id (attach mode).
	FindJob(id int) (Job, bool)
	// DebugEventCount reports how many tracer stop events the launcher
	// raises before MPIR_Breakpoint (SLURM after the fix described in the
	// paper raises a scale-independent number).
	DebugEventCount(spec JobSpec) int
}

// PublishProctab publishes a launcher's RPDTAB through the APAI symbols
// in chunked form: the rank-sorted table is split into bounded chunks
// (symProctabChunk(i), proctabChunkBytes each) with symProctabChunks
// carrying the count, alongside symProctabLen. The engine reads one
// chunk symbol at a time, so neither side ever materializes a second
// full encoded table — the launcher-side half of the chunked harvest.
func PublishProctab(p *cluster.Proc, tab proctab.Table) {
	publish(p, len(tab), func(w *proctab.ChunkWriter) error { return w.AddTable(tab) })
}

// publish sets the three symbols of a publication; add feeds the chunk
// writer the entries, that many, in rank order.
func publish(p *cluster.Proc, entries int, add func(*proctab.ChunkWriter) error) {
	n := 0
	w := proctab.NewChunkWriter(proctabChunkBytes, func(chunk []byte, sum uint64) error {
		// SetSymbol keeps a reference, not a copy: the writer allocates
		// every chunk afresh and is done with it once emitted.
		p.SetSymbol(symProctabChunk(n), cluster.Symbol{Value: chunk, Size: len(chunk)})
		n++
		return nil
	})
	if err := add(w); err == nil {
		_ = w.Flush()
	}
	p.SetSymbol(symProctabChunks, cluster.Symbol{Value: n, Size: 4})
	p.SetSymbol(symProctabLen, cluster.Symbol{Value: entries, Size: 4})
}

// ProctabFromLauncher reads and decodes the RPDTAB from a launcher process
// through an attached tracer — the engine's Region B operation, in its
// whole-table form (tools and the DPCL daemon use it; the engine's launch
// path streams via ReadProctabChunks instead). The cost charged by
// ReadSymbol is proportional to the bytes read.
func ProctabFromLauncher(tr *cluster.Tracer) (proctab.Table, error) {
	var tab proctab.Table
	err := ReadProctabChunks(tr, func(chunk []byte, i, total int) error {
		c, err := proctab.Scan(chunk)
		if err != nil {
			return err
		}
		tab = c.AppendTo(tab)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tab, nil
}

// ReadProctab is a late-attaching debugger's whole APAI access: attach to
// a launcher past MPIR_Breakpoint, read the table it published (charged
// like any tracer read), detach.
func ReadProctab(launcher *cluster.Proc) (proctab.Table, error) {
	tr, err := launcher.Attach()
	if err != nil {
		return nil, err
	}
	defer tr.Detach()
	return ProctabFromLauncher(tr)
}

// ReadProctabChunks streams the launcher's published RPDTAB chunk by
// chunk: fn receives each encoded chunk (with its index and the chunk
// count) right after its symbol read, so a caller re-streaming the table
// holds O(chunk) bytes at a time.
func ReadProctabChunks(tr *cluster.Tracer, fn func(chunk []byte, i, total int) error) error {
	raw, err := tr.ReadSymbol(symProctabChunks)
	if err != nil {
		return err
	}
	n, ok := raw.(int)
	if !ok {
		return errors.New("rm: MPIR_proctable_chunks symbol has unexpected type")
	}
	for i := 0; i < n; i++ {
		craw, err := tr.ReadSymbol(symProctabChunk(i))
		if err != nil {
			return err
		}
		chunk, ok := craw.([]byte)
		if !ok {
			return fmt.Errorf("rm: %s symbol has unexpected type", symProctabChunk(i))
		}
		if err := fn(chunk, i, n); err != nil {
			return err
		}
	}
	return nil
}
