// Package launchmon is a full reproduction, in pure Go, of
//
//	D. H. Ahn, D. C. Arnold, B. R. de Supinski, G. L. Lee, B. P. Miller,
//	M. Schulz. "Overcoming Scalability Challenges for Tool Daemon
//	Launching." ICPP 2008.
//
// The paper's system — LaunchMON, a scalable, portable infrastructure for
// launching HPC tool daemons through the resource manager's native
// services — lives in internal/core (FE/BE/MW APIs), internal/engine (the
// LaunchMON Engine), internal/lmonp (the LMONP protocol) and internal/iccl
// (the minimal daemon collectives). Everything the paper's evaluation
// depends on is implemented as well: a virtual-time cluster simulator
// (internal/vtime, internal/simnet, internal/cluster), a SLURM-like and a
// BG/L-like resource manager (internal/rm/...), the rsh/DPCL baselines,
// an MRNet-like tree-based overlay network (internal/tbon), and the three
// case-study tools Jobsnap, STAT and Open|SpeedShop
// (internal/tools/...).
//
// Underneath the FE/BE/MW APIs, internal/transport multiplexes every
// session of one front-end process over a single listener (sessions are
// routed by a small hello frame), and internal/proctab streams the RPDTAB
// as bounded-size chunks, so one tool process can drive many concurrent
// sessions at million-task scale. The launch pipeline is cut-through end
// to end on both daemon fabrics: the front end relays table chunks to the
// master daemon as they arrive from the engine, and the master streams
// them through the still-forming ICCL tree (DESIGN.md "Life of a
// session") — the middleware fabric runs the same pipeline during
// LaunchMW. Bulk tool traffic rides the collective data plane
// (internal/coll chunk codec over the same trees, on the BE and MW
// fabrics alike), and internal/health provides per-session failure
// detection with status callbacks over either fabric's topology.
//
// BenchmarkExperiments (internal/bench) and the cmd/lmonbench binary
// regenerate every table and figure of the paper's evaluation, with the
// canonical virtual-time results recorded in EXPERIMENTS.md; see README.md
// for the system inventory and DESIGN.md for the architecture, including the
// transport layer, the launch pipeline, the tool data plane and the fault
// model.
package launchmon
