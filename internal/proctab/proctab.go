// Package proctab defines the Remote Process Descriptor Table (RPDTAB) —
// the host name / executable name / process id / rank record for every
// task of a parallel job that the resource manager's Automatic Process
// Acquisition Interface exposes (MPIR_proctable in the MPIR convention) —
// together with its compact wire encoding used inside LMONP payloads.
package proctab

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"launchmon/internal/lmonp"
)

// ProcDesc describes one task of the parallel job.
type ProcDesc struct {
	Host string // node the task runs on
	Exe  string // executable name
	Pid  int    // node-local process id
	Rank int    // MPI rank
}

// Table is the RPDTAB: one entry per task, ordered by rank.
type Table []ProcDesc

// Encode renders the table in LaunchMON's compact wire form. Host and
// executable strings are pooled: real RPDTABs repeat the same executable
// for every task and the same host for every task on a node, and the
// compact form is what keeps the linear-in-tasks transfer affordable.
func (t Table) Encode() []byte {
	pool := make([]string, 0, 16)
	index := make(map[string]uint32)
	intern := func(s string) uint32 {
		if i, ok := index[s]; ok {
			return i
		}
		i := uint32(len(pool))
		index[s] = i
		pool = append(pool, s)
		return i
	}
	entries := make([]byte, 0, len(t)*16)
	for _, d := range t {
		entries = lmonp.AppendUint32(entries, intern(d.Host))
		entries = lmonp.AppendUint32(entries, intern(d.Exe))
		entries = lmonp.AppendUint32(entries, uint32(d.Pid))
		entries = lmonp.AppendUint32(entries, uint32(d.Rank))
	}
	out := lmonp.AppendStringList(nil, pool)
	out = lmonp.AppendUint32(out, uint32(len(t)))
	return append(out, entries...)
}

// readPool reads the string pool as substrings of one shared backing
// string. A decoded table otherwise holds one small string allocation per
// distinct host — hundreds of millions of GC-traceable objects when every
// daemon of a 10^4-node job decodes the full RPDTAB — where one backing
// object per table costs the collector nothing.
func readPool(r *lmonp.Reader) []string {
	// Each entry needs at least its 4-byte length prefix.
	n := r.Count(4)
	raw := make([][]byte, 0, n)
	var b strings.Builder
	for i := 0; i < n; i++ {
		s := r.Bytes()
		raw = append(raw, s)
		b.Write(s)
	}
	backing := b.String()
	pool := make([]string, 0, n)
	off := 0
	for _, s := range raw {
		pool = append(pool, backing[off:off+len(s)])
		off += len(s)
	}
	return pool
}

// Decode parses a table encoded by Encode.
func Decode(b []byte) (Table, error) {
	r := lmonp.NewReader(b)
	pool := readPool(r)
	n := r.Count(entryBytes)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("proctab: pool and count: %w", err)
	}
	t := make(Table, 0, n)
	for i := 0; i < n; i++ {
		hi, ei, pid, rank := r.Uint32(), r.Uint32(), r.Uint32(), r.Uint32()
		if int(hi) >= len(pool) || int(ei) >= len(pool) {
			return nil, fmt.Errorf("proctab: entry %d: pool index out of range", i)
		}
		// Pid and Rank travel as uint32 but live as int: values past
		// MaxInt32 cannot round-trip through Encode (a negative int cast to
		// uint32 lands here too), so reject them instead of smuggling
		// corrupt identities into the table.
		if pid > math.MaxInt32 {
			return nil, fmt.Errorf("proctab: entry %d: pid %d overflows", i, pid)
		}
		if rank > math.MaxInt32 {
			return nil, fmt.Errorf("proctab: entry %d: rank %d overflows", i, rank)
		}
		t = append(t, ProcDesc{Host: pool[hi], Exe: pool[ei], Pid: int(pid), Rank: int(rank)})
	}
	return t, nil
}

// Hosts returns the distinct hosts in table order of first appearance.
func (t Table) Hosts() []string {
	seen := make(map[string]bool)
	var hosts []string
	for _, d := range t {
		if !seen[d.Host] {
			seen[d.Host] = true
			hosts = append(hosts, d.Host)
		}
	}
	return hosts
}

// OnHost returns the entries placed on the given host, ordered by rank.
func (t Table) OnHost(host string) Table {
	var out Table
	for _, d := range t {
		if d.Host == host {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// Validate checks structural invariants: ranks 0..len-1 each exactly once
// and no empty host or executable names.
func (t Table) Validate() error {
	seen := make([]bool, len(t))
	for i, d := range t {
		if d.Rank < 0 || d.Rank >= len(t) {
			return fmt.Errorf("proctab: entry %d: rank %d out of range [0,%d)", i, d.Rank, len(t))
		}
		if seen[d.Rank] {
			return fmt.Errorf("proctab: duplicate rank %d", d.Rank)
		}
		seen[d.Rank] = true
		if err := d.checkNames(i); err != nil {
			return err
		}
	}
	return nil
}

// ValidateSlice checks the invariants of a rank slice of a larger table
// (rank-sliced seed delivery): the entries keep their global ranks, so
// instead of Validate's dense-rank requirement it demands strictly
// increasing non-negative ranks — which a stream routed in global rank
// order preserves, and which still rules out duplicates — plus non-empty
// host and executable names.
func (t Table) ValidateSlice() error {
	prev := -1
	for i, d := range t {
		if d.Rank < 0 {
			return fmt.Errorf("proctab: entry %d: negative rank %d", i, d.Rank)
		}
		if d.Rank <= prev {
			return fmt.Errorf("proctab: entry %d: rank %d not increasing (prev %d)", i, d.Rank, prev)
		}
		prev = d.Rank
		if err := d.checkNames(i); err != nil {
			return err
		}
	}
	return nil
}

// checkNames rejects entry i of a table if it names no host or executable.
func (d ProcDesc) checkNames(i int) error {
	if d.Host == "" {
		return fmt.Errorf("proctab: entry %d: empty host", i)
	}
	if d.Exe == "" {
		return fmt.Errorf("proctab: entry %d: empty exe", i)
	}
	return nil
}
