// Package proctab defines the Remote Process Descriptor Table (RPDTAB) —
// the host name / executable name / process id / rank record for every
// task of a parallel job that the resource manager's Automatic Process
// Acquisition Interface exposes (MPIR_proctable in the MPIR convention) —
// together with its compact wire encoding used inside LMONP payloads.
package proctab

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
// compact form is what keeps the linear-in-tasks transfer affordable. A
// string joins the pool when an entry first uses it, host before
// executable. It is a ChunkWriter without a bound: one chunk, however large.
func (t Table) Encode() []byte {
	w := ChunkWriter{maxBytes: math.MaxInt}
	w.Grow(len(t))
	for _, d := range t {
		w.AddRaw(d.Host, d.Exe, uint32(d.Pid), uint32(d.Rank)) // cannot fail: nothing is emitted
	}
	return w.render()
}

// pool is the string pool of an encoding under construction: the strings
// in order of first use, and the encoded size they add up to. Consecutive
// entries of a real table repeat their host and their executable, so the
// string last looked up in each of the two places (role 0 the host, 1 the
// executable) is remembered and answers the next lookup without hashing.
// Past that, a pool of up to poolScan strings — a slurmd's reply, a seed
// router's rank slice — is searched in order, and index is built from strs
// only when the pool outgrows that.
type pool struct {
	strs  []string
	index map[string]uint32 // strs' positions, kept once len(strs) > poolScan
	size  int               // encoded bytes of strs: a 4-byte length prefix and the string, each
	last  [2]lookup
}

const poolScan = 16

type lookup struct {
	s  string
	i  uint32
	ok bool
}

// find returns the pool index of s, if it is pooled.
func (p *pool) find(role int, s string) (uint32, bool) {
	if l := &p.last[role]; l.ok && l.s == s {
		return l.i, true
	}
	i, ok := p.search(s)
	if ok {
		p.last[role] = lookup{s, i, true}
	}
	return i, ok
}

// search looks s up in strs: in order, or through index past poolScan.
func (p *pool) search(s string) (uint32, bool) {
	if len(p.strs) > poolScan {
		i, ok := p.index[s]
		return i, ok
	}
	for i, t := range p.strs {
		if t == s {
			return uint32(i), true
		}
	}
	return 0, false
}

// intern returns the pool index of s, pooling it first if need be.
func (p *pool) intern(role int, s string) uint32 {
	i, ok := p.find(role, s)
	if ok {
		return i
	}
	i = uint32(len(p.strs))
	p.strs = append(p.strs, s)
	p.size += 4 + len(s)
	p.last[role] = lookup{s, i, true}
	if len(p.strs) > poolScan {
		if p.index == nil {
			p.index = make(map[string]uint32, cap(p.strs))
		}
		for j := len(p.index); j < len(p.strs); j++ { // index catches up with strs
			p.index[p.strs[j]] = uint32(j)
		}
	}
	return i
}

// reset empties the pool, keeping what it allocated (a map, once one has
// been made).
func (p *pool) reset() {
	clear(p.strs)
	clear(p.index)
	*p = pool{strs: p.strs[:0], index: p.index}
}

// appendHeader and appendEntry are the one renderer of the wire form:
// the pool as a string list and the entry count, then 16 bytes an entry.
func (p *pool) appendHeader(dst []byte, entries int) []byte {
	dst = lmonp.AppendStringList(dst, p.strs)
	return lmonp.AppendUint32(dst, uint32(entries))
}

func appendEntry(dst []byte, host, exe, pid, rank uint32) []byte {
	var e [entryBytes]byte
	binary.BigEndian.PutUint32(e[0:], host)
	binary.BigEndian.PutUint32(e[4:], exe)
	binary.BigEndian.PutUint32(e[8:], pid)
	binary.BigEndian.PutUint32(e[12:], rank)
	return append(dst, e[:]...)
}

// Chunk is an encoded table — a whole one or one chunk of a stream — held
// in wire form: the pool decoded, the entries left as the 16-byte records
// they arrived as. It is what a hop that only passes entries on works with
// (slurmd merging its children's replies, the engine re-chunking the
// harvest, a seed router re-packing a chunk): the entries of a scanned
// chunk alias the message it was scanned from, and its pool strings share
// one backing string. The two ends of the path materialize (AppendTo).
type Chunk struct {
	pool    []string
	entries []byte
}

// readPool reads the string pool as substrings of one shared backing
// string. A decoded table otherwise holds one small string allocation per
// distinct host — hundreds of millions of GC-traceable objects when every
// daemon of a 10^4-node job decodes the full RPDTAB — where one backing
// object per table costs the collector nothing.
//
// The length prefixes are walked twice, to size the backing and to fill
// it, so the pool and its backing are all a read allocates. A Builder never
// changes what it has written, so each string is taken as soon as it is in;
// sized up front, the Builder never moves them either.
func readPool(r *lmonp.Reader) []string {
	// Each entry needs at least its 4-byte length prefix.
	n := r.Count(4)
	again, total := *r, 0
	for i := 0; i < n; i++ {
		total += len(r.Bytes())
	}
	if r.Err() != nil {
		return nil
	}
	var b strings.Builder
	b.Grow(total)
	pool := make([]string, n)
	for i := range pool {
		at := b.Len()
		b.Write(again.Bytes())
		pool[i] = b.String()[at:]
	}
	return pool
}

// Scan parses the encoding Encode writes as far as a hop that passes it on
// needs: the pool is decoded (O(distinct strings)), every entry is checked
// — what Decode rejects, Scan rejects, with the same error — and none is
// materialized.
func Scan(b []byte) (Chunk, error) {
	c, err := scanPool(b)
	if err != nil {
		return Chunk{}, err
	}
	for i, n := 0, c.Len(); i < n; i++ {
		if hi, ei, pid, rank := c.Entry(i); c.bad(hi, ei, pid, rank) {
			return Chunk{}, c.entryError(i)
		}
	}
	return c, nil
}

// scanPool reads the pool and the entry count and frames the entries,
// unchecked.
func scanPool(b []byte) (Chunk, error) {
	r := lmonp.NewReader(b)
	pool := readPool(r)
	n := r.Count(entryBytes)
	if err := r.Err(); err != nil {
		return Chunk{}, fmt.Errorf("proctab: pool and count: %w", err)
	}
	return Chunk{pool: pool, entries: b[len(b)-r.Remaining():][:n*entryBytes]}, nil
}

// bad reports whether an entry must not enter a table: a pool index past
// the pool, or a pid or rank past MaxInt32 — they travel as uint32 but live
// as int, so such a value cannot round-trip through Encode (a negative int
// cast to uint32 lands here too) and is rejected instead of smuggling a
// corrupt identity into the table.
func (c Chunk) bad(host, exe, pid, rank uint32) bool {
	return int(host) >= len(c.pool) || int(exe) >= len(c.pool) || pid > math.MaxInt32 || rank > math.MaxInt32
}

// entryError says what is wrong with bad entry i, first fault first.
func (c Chunk) entryError(i int) error {
	host, exe, pid, rank := c.Entry(i)
	switch {
	case int(host) >= len(c.pool) || int(exe) >= len(c.pool):
		return fmt.Errorf("proctab: entry %d: pool index out of range", i)
	case pid > math.MaxInt32:
		return fmt.Errorf("proctab: entry %d: pid %d overflows", i, pid)
	default:
		return fmt.Errorf("proctab: entry %d: rank %d overflows", i, rank)
	}
}

// Len returns the number of entries.
func (c Chunk) Len() int { return len(c.entries) / entryBytes }

// Pool returns the chunk's strings; Entry's host and exe index it. The
// caller must not modify it.
func (c Chunk) Pool() []string { return c.pool }

// Entry returns entry i as it travels: host and executable as pool
// indices, pid and rank.
func (c Chunk) Entry(i int) (host, exe, pid, rank uint32) {
	e := c.entries[i*entryBytes:][:entryBytes]
	return binary.BigEndian.Uint32(e[0:]), binary.BigEndian.Uint32(e[4:]),
		binary.BigEndian.Uint32(e[8:]), binary.BigEndian.Uint32(e[12:])
}

// RankOrder checks a scanned chunk as Table.Validate checks the table it
// decodes to — ranks 0..Len()-1 each exactly once, no empty host or
// executable, with Validate's errors — and returns, for each rank, the
// index of the entry that carries it.
func (c Chunk) RankOrder() ([]uint32, error) {
	n := c.Len()
	order := make([]uint32, n)
	// order[r] reads 0 both before rank r is seen and once entry 0 has
	// claimed it, so a repeat of entry 0's rank is told by the rank.
	var first uint32
	if n > 0 {
		_, _, _, first = c.Entry(0)
	}
	for i := 0; i < n; i++ {
		hi, ei, _, rank := c.Entry(i)
		if int(rank) >= n {
			return nil, fmt.Errorf("proctab: entry %d: rank %d out of range [0,%d)", i, rank, n)
		}
		if order[rank] != 0 || i > 0 && rank == first {
			return nil, fmt.Errorf("proctab: duplicate rank %d", rank)
		}
		order[rank] = uint32(i)
		if c.pool[hi] == "" || c.pool[ei] == "" {
			return nil, ProcDesc{Host: c.pool[hi], Exe: c.pool[ei]}.checkNames(i)
		}
	}
	return order, nil
}

// AppendTo materializes the chunk's entries behind those of t.
func (c Chunk) AppendTo(t Table) Table {
	t, _ = c.appendTo(slices.Grow(t, c.Len()), false)
	return t
}

// appendTo is AppendTo, checking each entry first if the chunk has not
// been through Scan's loop (Decode: one pass over the entries, not two).
func (c Chunk) appendTo(t Table, check bool) (Table, error) {
	for i, n := 0, c.Len(); i < n; i++ {
		hi, ei, pid, rank := c.Entry(i)
		if check && c.bad(hi, ei, pid, rank) {
			return nil, c.entryError(i)
		}
		t = append(t, ProcDesc{Host: c.pool[hi], Exe: c.pool[ei], Pid: int(pid), Rank: int(rank)})
	}
	return t, nil
}

// Append adds one entry to a chunk being built by hand (slurmd's local
// tasks). A string joins the pool unless it is one of the two pooled last,
// so a run of tasks on one host pools its host and executable once; a chunk
// built this way may pool a string twice, which AppendMerged — its only way
// onto the wire — collapses.
func (c *Chunk) Append(host, exe string, pid, rank uint32) {
	c.entries = appendEntry(c.entries, c.pooled(host), c.pooled(exe), pid, rank)
}

func (c *Chunk) pooled(s string) uint32 {
	for i := len(c.pool) - 1; i >= 0 && i >= len(c.pool)-2; i-- {
		if c.pool[i] == s {
			return uint32(i)
		}
	}
	c.pool = append(c.pool, s)
	return uint32(len(c.pool) - 1)
}

// Grow makes room for n more entries.
func (c *Chunk) Grow(n int) { c.entries = slices.Grow(c.entries, n*entryBytes) }

// AppendMerged appends to dst the encoding of the table that holds the
// entries of all the chunks, in order — byte for byte what decoding them
// into one Table and encoding that gives, because a string joins the
// merged pool when an entry first uses it (host before executable): pool
// strings no entry uses are dropped and duplicates collapse. The chunks
// are walked twice, to size the pool and to write, so dst grows once, by
// exactly the encoding's size.
func AppendMerged(dst []byte, chunks ...Chunk) []byte {
	strs, entries := 0, 0
	for _, c := range chunks {
		strs += len(c.pool)
		entries += c.Len()
	}
	p := pool{strs: make([]string, 0, strs)}
	// remap[k] is the merged pool index + 1 of string k, counting through
	// the chunks' pools in order; 0 until an entry uses the string.
	remap := make([]uint32, strs)
	base := 0
	for _, c := range chunks {
		rm := remap[base : base+len(c.pool)]
		base += len(c.pool)
		for i, n := 0, c.Len(); i < n; i++ {
			hi, ei, _, _ := c.Entry(i)
			if rm[hi] == 0 {
				rm[hi] = p.intern(0, c.pool[hi]) + 1
			}
			if rm[ei] == 0 {
				rm[ei] = p.intern(1, c.pool[ei]) + 1
			}
		}
	}
	dst = slices.Grow(dst, chunkOverhead+p.size+entries*entryBytes)
	dst = p.appendHeader(dst, entries)
	base = 0
	for _, c := range chunks {
		rm := remap[base : base+len(c.pool)]
		base += len(c.pool)
		for i, n := 0, c.Len(); i < n; i++ {
			hi, ei, pid, rank := c.Entry(i)
			dst = appendEntry(dst, rm[hi]-1, rm[ei]-1, pid, rank)
		}
	}
	return dst
}

// Decode parses a table encoded by Encode: Scan and AppendTo in one pass
// over the entries.
func Decode(b []byte) (Table, error) {
	c, err := scanPool(b)
	if err != nil {
		return nil, err
	}
	return c.appendTo(make(Table, 0, c.Len()), true)
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

// validateSlice checks the invariants of a rank slice of a larger table
// (rank-sliced seed delivery): the entries keep their global ranks, so
// instead of Validate's dense-rank requirement it demands strictly
// increasing non-negative ranks — which a stream routed in global rank
// order preserves, and which still rules out duplicates — plus non-empty
// host and executable names.
func (t Table) validateSlice() error {
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
