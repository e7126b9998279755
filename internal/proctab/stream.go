package proctab

import (
	"fmt"

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
// each, handing every finished chunk (and its FNV-1a sum) to emit. It
// produces exactly the chunk boundaries EncodeChunks produces for the
// same input, so a sender that never materializes the full table — the
// engine re-chunking the launcher's harvest, an interior seed router
// re-packing a rank slice — stays byte-compatible with one that does.
type ChunkWriter struct {
	maxBytes int
	emit     func(chunk []byte, sum uint64) error

	pend   Table
	size   int
	pooled map[string]bool
	count  int
	chunks int
	digest uint64
}

// NewChunkWriter returns a writer emitting chunks of at most maxBytes
// (maxBytes <= 0 selects DefaultChunkBytes).
func NewChunkWriter(maxBytes int, emit func(chunk []byte, sum uint64) error) *ChunkWriter {
	if maxBytes <= 0 {
		maxBytes = DefaultChunkBytes
	}
	return &ChunkWriter{
		maxBytes: maxBytes,
		emit:     emit,
		size:     chunkOverhead,
		pooled:   make(map[string]bool),
		digest:   lmonp.SumInit,
	}
}

// Add appends one entry, emitting the pending chunk first when the entry
// would push its encoded size past maxBytes. A chunk always carries at
// least one entry; a single entry whose pooled strings alone exceed
// maxBytes yields one oversized chunk rather than an error.
func (w *ChunkWriter) Add(d ProcDesc) error {
	add := entryBytes
	if !w.pooled[d.Host] {
		add += 4 + len(d.Host)
	}
	if !w.pooled[d.Exe] && d.Exe != d.Host {
		add += 4 + len(d.Exe)
	}
	if len(w.pend) > 0 && w.size+add > w.maxBytes {
		if err := w.flush(); err != nil {
			return err
		}
		add = entryBytes + 4 + len(d.Host)
		if d.Exe != d.Host {
			add += 4 + len(d.Exe)
		}
	}
	w.pooled[d.Host] = true
	w.pooled[d.Exe] = true
	w.size += add
	w.pend = append(w.pend, d)
	w.count++
	return nil
}

// AddTable appends every entry of t.
func (w *ChunkWriter) AddTable(t Table) error {
	for _, d := range t {
		if err := w.Add(d); err != nil {
			return err
		}
	}
	return nil
}

func (w *ChunkWriter) flush() error {
	chunk := w.pend.Encode()
	sum := lmonp.Sum64(chunk)
	w.digest = lmonp.FoldSum(w.digest, sum)
	w.chunks++
	w.pend = w.pend[:0]
	w.size = chunkOverhead
	clear(w.pooled)
	return w.emit(chunk, sum)
}

// Flush emits the pending tail chunk. An empty stream still emits one
// empty chunk, mirroring EncodeChunks on an empty table.
func (w *ChunkWriter) Flush() error {
	if len(w.pend) > 0 || w.chunks == 0 {
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
// rolling digest as chunks arrive so validation needs no second copy.
type Assembler struct {
	tab    Table
	chunks int
	digest uint64
}

// Add decodes one chunk and appends its entries.
func (a *Assembler) Add(chunk []byte) error {
	t, err := Decode(chunk)
	if err != nil {
		return fmt.Errorf("proctab: chunk %d: %w", a.chunks, err)
	}
	a.digest = lmonp.FoldSum(a.startDigest(), lmonp.Sum64(chunk))
	a.chunks++
	a.tab = append(a.tab, t...)
	return nil
}

func (a *Assembler) startDigest() uint64 {
	if a.chunks == 0 {
		return lmonp.SumInit
	}
	return a.digest
}

// Digest returns the rolling digest over the chunks added so far, for
// comparison against the sender's end marker.
func (a *Assembler) Digest() uint64 { return a.startDigest() }

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
	return a.finish(total, "slice", Table.ValidateSlice)
}

func (a *Assembler) finish(total int, what string, validate func(Table) error) (Table, error) {
	if total < 0 || len(a.tab) != total {
		return nil, fmt.Errorf("proctab: reassembled %d entries, end marker says %d", len(a.tab), total)
	}
	if err := validate(a.tab); err != nil {
		return nil, fmt.Errorf("proctab: reassembled %s: %w", what, err)
	}
	return a.tab, nil
}

// FinishMarker is Finish against a received end-marker payload: the stream
// must also fold to the digest the sender put in the marker.
func (a *Assembler) FinishMarker(payload []byte) (Table, error) {
	total, digest, err := DecodeEndMarker(payload)
	if err != nil {
		return nil, err
	}
	if digest != a.Digest() {
		return nil, fmt.Errorf("proctab: stream digest mismatch: sender %#x, received %#x", digest, a.Digest())
	}
	if total > uint64(len(a.tab)) {
		return nil, fmt.Errorf("proctab: end marker claims %d entries, received %d", total, len(a.tab))
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

// SendStream writes the table to c as a chunk stream (StreamTo).
func SendStream(c *lmonp.Conn, class lmonp.MsgClass, t Table, maxBytes int) error {
	w, end := StreamTo(c, class, maxBytes)
	if err := w.AddTable(t); err != nil {
		return err
	}
	return end()
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
