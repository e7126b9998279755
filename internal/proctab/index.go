package proctab

import (
	"fmt"
	"sort"
)

// This file is the memory-model half of the RPDTAB: the immutable,
// columnar Index a session builds once and shares, and the per-daemon
// rank Slice that replaces private full-table retention. The old layout
// kept K full copies of a K-entry table alive (one per daemon), O(K²)
// session memory; the sliced layout keeps one index plus K slices of
// K/daemons entries each — O(K + index) total. The Index models the
// node-local shared segment a real deployment would map read-only into
// every daemon; in the simulation it is published by the front end and
// looked up by session id.

// Index is an immutable columnar host/exe/pid index over a rank-sorted
// RPDTAB. Entry i describes rank i. Host and exe strings are pooled, so
// the index costs ~12 bytes per rank plus the distinct-string pool —
// orders of magnitude below a materialized Table of ProcDesc structs.
type Index struct {
	pool []string
	host []uint32 // rank -> pool index
	exe  []uint32 // rank -> pool index
	pid  []uint32 // rank -> pid
}

// BuildIndex constructs the index from a validated, rank-sorted table
// (entry i must carry rank i — what Table.SortByRank establishes).
// Its strings are pooled as the wire encoding pools them.
func BuildIndex(t Table) (*Index, error) {
	x := &Index{
		host: make([]uint32, len(t)),
		exe:  make([]uint32, len(t)),
		pid:  make([]uint32, len(t)),
	}
	var p pool
	for i, d := range t {
		if d.Rank != i {
			return nil, fmt.Errorf("proctab: index needs rank-sorted table, entry %d has rank %d", i, d.Rank)
		}
		x.host[i] = p.intern(0, d.Host)
		x.exe[i] = p.intern(1, d.Exe)
		x.pid[i] = uint32(d.Pid)
	}
	x.pool = p.strs
	return x, nil
}

// ranks returns the number of ranks.
func (x *Index) ranks() int { return len(x.host) }

// entry returns the descriptor of one rank.
func (x *Index) entry(rank int) ProcDesc {
	return ProcDesc{
		Host: x.pool[x.host[rank]],
		Exe:  x.pool[x.exe[rank]],
		Pid:  int(x.pid[rank]),
		Rank: rank,
	}
}

// Table materializes the full table from the index. Callers own the
// result; the index itself stays immutable.
func (x *Index) Table() Table {
	t := make(Table, x.ranks())
	for i := range t {
		t[i] = x.entry(i)
	}
	return t
}

// MemBytes models the index's resident size: 12 bytes of columns per
// rank plus the pooled strings (16 bytes string-header overhead each).
func (x *Index) MemBytes() int {
	b := 12 * x.ranks()
	for _, s := range x.pool {
		b += 16 + len(s)
	}
	return b
}

// TableBytes is Table.MemBytes of the table the index was built from: its
// pool holds each distinct host and executable string once.
func (x *Index) TableBytes() int {
	b := 48 * x.ranks()
	for _, s := range x.pool {
		b += len(s)
	}
	return b
}

// SortByRank sorts the table in place so entry i carries rank i — the
// order chunked streams rely on for contiguous rank ranges per chunk.
func (t Table) SortByRank() {
	sort.Slice(t, func(i, j int) bool { return t[i].Rank < t[j].Rank })
}

// MemBytes models the resident size of a materialized table: the
// ProcDesc struct per entry (two string headers, two ints: 48 bytes)
// plus the distinct host/exe strings. This is the retention metric the
// launch benches report per role.
func (t Table) MemBytes() int {
	seen := make(map[string]bool)
	b := 48 * len(t)
	for _, d := range t {
		if !seen[d.Host] {
			seen[d.Host] = true
			b += len(d.Host)
		}
		if !seen[d.Exe] {
			seen[d.Exe] = true
			b += len(d.Exe)
		}
	}
	return b
}
