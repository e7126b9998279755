// Package tools groups the paper's three case-study tools (§5), each a
// complete front-end/back-end program built solely on the public LaunchMON
// surface of internal/core:
//
//   - tools/jobsnap — Jobsnap (§5.1): per-task /proc-style snapshots of a
//     running MPI job, gathered over the collective tool-data plane;
//   - tools/stat — the Stack Trace Analysis Tool (§5.2): stack sampling
//     with prefix-tree merging over an MRNet-like TBŌN; and
//   - tools/oss — Open|SpeedShop (§5.3): the DPCL-vs-LaunchMON APAI
//     acquisition comparison of Table 1.
//
// The tools double as integration tests of the launch pipeline: each one
// attaches or launches through a Session, learns the RPDTAB at its
// daemons, and moves bulk data without private fan-in code.
package tools
