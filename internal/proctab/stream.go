package proctab

import (
	"fmt"
	"slices"

	"launchmon/internal/lmonp"
)

// This file implements the chunked RPDTAB transfer: instead of shipping
// the whole table as one monolithic LMONP payload (16 MB+ at million-task
// scale), the sender splits it into independently decodable chunks of
// bounded encoded size, closed by an end marker carrying the total entry
// count and the rolling digest of the chunk stream. Receivers reassemble
// and validate. Chunks on a connection are FIFO, so reassembly is a
// straight append; because each chunk is a complete mini-table (its own
// string pool), a receiver's peak per-message memory is bounded by the
// chunk size regardless of job scale, and early chunks overlap the tail
// of the transfer (and, on the engine→FE path, the daemon-spawn window)
// on the wire.

// DefaultChunkBytes bounds one encoded RPDTAB chunk when the caller does
// not configure a size. 64 KiB keeps paper-scale tables (≤8192 tasks) in
// a handful of chunks while capping million-task payloads.
const DefaultChunkBytes = 64 << 10

// Fixed per-chunk framing: pool count (4) + entry count (4).
const chunkOverhead, entryBytes = 8, 16

// ChunkWriter streams entries into encoded chunks of at most maxBytes
// each, handing every finished chunk (and its lmonp.Sum64) to emit. The
// pending chunk is held the way it will travel — its pool, and its entries
// as 16-byte records in a buffer the writer keeps across chunks — and is
// rendered in one allocation of exactly its size, behind the head a framing
// hop asked for (NewChunkWriterBehind). Chunk boundaries depend on entry
// order and bound alone, so a sender that never materializes the table —
// the engine re-chunking the launcher's harvest, an interior seed router
// re-packing a rank slice — emits the chunks EncodeChunks cuts from the
// table itself.
type ChunkWriter struct {
	maxBytes int
	head     int
	emit     func(chunk []byte, sum uint64) error

	pool    pool
	entries []byte
	count   int
	chunks  int
	digest  uint64
}

// NewChunkWriter returns a writer emitting chunks of at most maxBytes
// (maxBytes <= 0 selects DefaultChunkBytes).
func NewChunkWriter(maxBytes int, emit func(chunk []byte, sum uint64) error) *ChunkWriter {
	if maxBytes <= 0 {
		maxBytes = DefaultChunkBytes
	}
	return &ChunkWriter{maxBytes: maxBytes, emit: emit, digest: lmonp.SumInit}
}

// NewChunkWriterBehind is NewChunkWriter for a hop that frames each chunk:
// emit is handed the chunk behind head zero bytes, for the caller to fill
// in with the frame's head, so the chunk is rendered once, into the message
// it travels in. The bound and the sum cover the chunk alone.
func NewChunkWriterBehind(head, maxBytes int, emit func(msg []byte, sum uint64) error) *ChunkWriter {
	w := NewChunkWriter(maxBytes, emit)
	w.head = head
	return w
}

// AddRaw appends one entry, emitting the pending chunk first when the
// entry would push its encoded size past maxBytes. A chunk always carries
// at least one entry; a single entry whose pooled strings alone exceed
// maxBytes yields one oversized chunk rather than an error.
func (w *ChunkWriter) AddRaw(host, exe string, pid, rank uint32) error {
	hi, hok := w.pool.find(0, host)
	ei, eok := w.pool.find(1, exe)
	add := entryBytes
	if !hok {
		add += 4 + len(host)
	}
	if !eok && exe != host {
		add += 4 + len(exe)
	}
	if len(w.entries) > 0 && chunkOverhead+w.pool.size+len(w.entries)+add > w.maxBytes {
		if err := w.flush(); err != nil {
			return err
		}
		hok, eok = false, false
	}
	if !hok {
		hi = w.pool.intern(0, host)
	}
	if !eok {
		ei = w.pool.intern(1, exe)
	}
	w.entries = appendEntry(w.entries, hi, ei, pid, rank)
	w.count++
	return nil
}

// add appends one entry of a materialized table.
func (w *ChunkWriter) add(d ProcDesc) error {
	return w.AddRaw(d.Host, d.Exe, uint32(d.Pid), uint32(d.Rank))
}

// AddTable appends every entry of t.
func (w *ChunkWriter) AddTable(t Table) error {
	for _, d := range t {
		if err := w.add(d); err != nil {
			return err
		}
	}
	return nil
}

// AddChunk appends every entry of a scanned chunk.
func (w *ChunkWriter) AddChunk(c Chunk) error {
	for i, n := 0, c.Len(); i < n; i++ {
		hi, ei, pid, rank := c.Entry(i)
		if err := w.AddRaw(c.pool[hi], c.pool[ei], pid, rank); err != nil {
			return err
		}
	}
	return nil
}

// Grow readies the entry buffer for n more entries, as far as one chunk
// can hold them: a caller that knows how many are coming saves the
// buffer's growth steps. A buffer that must grow at least doubles, so a
// stream fed a few entries per call still grows in a few steps.
func (w *ChunkWriter) Grow(n int) {
	room := max(0, w.maxBytes-chunkOverhead)
	if need := min(len(w.entries)+n*entryBytes, room); need > cap(w.entries) {
		w.entries = slices.Grow(w.entries, min(max(need, 2*cap(w.entries)), room)-len(w.entries))
	}
}

// render returns the pending chunk behind the writer's head, in one
// allocation of their size.
func (w *ChunkWriter) render() []byte {
	chunk := make([]byte, w.head, w.head+chunkOverhead+w.pool.size+len(w.entries))
	return append(w.pool.appendHeader(chunk, len(w.entries)/entryBytes), w.entries...)
}

func (w *ChunkWriter) flush() error {
	chunk := w.render()
	sum := lmonp.Sum64(chunk[w.head:])
	w.digest = lmonp.FoldSum(w.digest, sum)
	w.chunks++
	w.entries = w.entries[:0]
	w.pool.reset()
	return w.emit(chunk, sum)
}

// Flush emits the pending tail chunk. An empty stream still emits one
// empty chunk, mirroring EncodeChunks on an empty table.
func (w *ChunkWriter) Flush() error {
	if len(w.entries) > 0 || w.chunks == 0 {
		return w.flush()
	}
	return nil
}

// Count returns the number of entries added so far.
func (w *ChunkWriter) Count() int { return w.count }

// Digest returns the rolling digest of the emitted chunk sums, the value
// the stream's end marker carries.
func (w *ChunkWriter) Digest() uint64 { return w.digest }

// EncodeChunks splits the table into encoded chunks of at most maxBytes
// each (maxBytes <= 0 selects DefaultChunkBytes). Every chunk is a
// complete Encode output for a contiguous slice of the table, so Decode
// applies to each chunk on its own. An empty table encodes to one empty
// chunk.
func (t Table) EncodeChunks(maxBytes int) [][]byte {
	var chunks [][]byte
	w := NewChunkWriter(maxBytes, func(chunk []byte, _ uint64) error {
		chunks = append(chunks, chunk)
		return nil
	})
	w.AddTable(t)
	w.Flush()
	return chunks
}

// EncodeEndMarker renders a stream end-marker payload: total entry count
// plus the rolling digest of the chunk stream it closes.
func EncodeEndMarker(total uint64, digest uint64) []byte {
	payload := lmonp.AppendUint64(nil, total)
	return lmonp.AppendUint64(payload, digest)
}

// DecodeEndMarker parses an end-marker payload.
func DecodeEndMarker(payload []byte) (total uint64, digest uint64, err error) {
	rd := lmonp.NewReader(payload)
	total, digest = rd.Uint64(), rd.Uint64()
	if err := rd.Err(); err != nil {
		return 0, 0, fmt.Errorf("proctab: end marker: %w", err)
	}
	return total, digest, nil
}

// Assembler reassembles a chunk stream back into a Table, folding the
// rolling digest as chunks arrive so validation needs no second copy. It
// keeps each chunk as scanned — checked, aliasing the message it came in —
// and materializes the table once, at its final size, when the end marker
// has vouched for the count.
type Assembler struct {
	parts   []Chunk
	entries int
	digest  uint64
}

// Add checks one chunk and queues its entries.
func (a *Assembler) Add(chunk []byte) error {
	c, err := Scan(chunk)
	if err != nil {
		return fmt.Errorf("proctab: chunk %d: %w", len(a.parts), err)
	}
	a.digest = lmonp.FoldSum(a.streamDigest(), lmonp.Sum64(chunk))
	a.AddScanned(c)
	return nil
}

// AddScanned queues the entries of a chunk its caller has scanned already
// and whose stream it checks itself (a seed rank's share: scanned where it
// was routed, its sequence checked by the link's coll.SeqCheck), so the
// chunk is read once. It folds no digest: such a stream ends with Finish or
// FinishSlice, not FinishMarker.
func (a *Assembler) AddScanned(c Chunk) {
	a.parts = append(a.parts, c)
	a.entries += c.Len()
}

// streamDigest returns the rolling digest over the chunks added so far, for
// comparison against the sender's end marker.
func (a *Assembler) streamDigest() uint64 {
	if len(a.parts) == 0 {
		return lmonp.SumInit
	}
	return a.digest
}

// Finish checks the reassembled table against the end marker's total and
// the structural invariants (Table.Validate: every rank exactly once,
// no empty names) and returns it.
func (a *Assembler) Finish(total int) (Table, error) {
	return a.finish(total, "table", Table.Validate)
}

// FinishSlice is Finish for a rank slice of a larger table (rank-sliced
// seed routing): the entries keep their global ranks, so instead of
// Validate's dense-rank check it requires strictly increasing ranks —
// the order the routed stream preserves — and non-empty names.
func (a *Assembler) FinishSlice(total int) (Table, error) {
	return a.finish(total, "slice", Table.validateSlice)
}

func (a *Assembler) finish(total int, what string, validate func(Table) error) (Table, error) {
	if total < 0 || a.entries != total {
		return nil, fmt.Errorf("proctab: reassembled %d entries, end marker says %d", a.entries, total)
	}
	tab := slices.Grow(Table(nil), total)
	for _, c := range a.parts {
		tab = c.AppendTo(tab)
	}
	if err := validate(tab); err != nil {
		return nil, fmt.Errorf("proctab: reassembled %s: %w", what, err)
	}
	return tab, nil
}

// FinishMarker is Finish against a received end-marker payload: the stream
// must also fold to the digest the sender put in the marker.
func (a *Assembler) FinishMarker(payload []byte) (Table, error) {
	total, digest, err := DecodeEndMarker(payload)
	if err != nil {
		return nil, err
	}
	if digest != a.streamDigest() {
		return nil, fmt.Errorf("proctab: stream digest mismatch: sender %#x, received %#x", digest, a.streamDigest())
	}
	if total > uint64(a.entries) {
		return nil, fmt.Errorf("proctab: end marker claims %d entries, received %d", total, a.entries)
	}
	return a.Finish(int(total))
}

// StreamTo returns a ChunkWriter whose chunks go out on c as
// TypeProctabChunk messages of at most maxBytes payload each, and the end
// function that closes the stream: it flushes the tail chunk and sends the
// TypeProctabEnd marker carrying the entry count and the stream digest.
func StreamTo(c *lmonp.Conn, class lmonp.MsgClass, maxBytes int) (w *ChunkWriter, end func() error) {
	w = NewChunkWriter(maxBytes, func(chunk []byte, _ uint64) error {
		return c.Send(&lmonp.Msg{Class: class, Type: lmonp.TypeProctabChunk, Payload: chunk})
	})
	return w, func() error {
		if err := w.Flush(); err != nil {
			return err
		}
		return c.Send(&lmonp.Msg{
			Class:   class,
			Type:    lmonp.TypeProctabEnd,
			Payload: EncodeEndMarker(uint64(w.Count()), w.Digest()),
		})
	}
}

// RecvStream consumes a chunk stream from c until the end marker and
// returns the validated table; any other message is a protocol error.
func RecvStream(c *lmonp.Conn, class lmonp.MsgClass) (Table, error) {
	var asm Assembler
	for {
		msg, err := c.Recv()
		if err != nil {
			return nil, err
		}
		if msg.Class != class {
			return nil, fmt.Errorf("proctab: stream message on class %v, want %v", msg.Class, class)
		}
		switch msg.Type {
		case lmonp.TypeProctabChunk:
			if err := asm.Add(msg.Payload); err != nil {
				return nil, err
			}
		case lmonp.TypeProctabEnd:
			return asm.FinishMarker(msg.Payload)
		default:
			return nil, fmt.Errorf("proctab: unexpected %v message in RPDTAB stream", msg.Type)
		}
	}
}
