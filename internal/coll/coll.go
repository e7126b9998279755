// Package coll is the wire codec of the collective tool-data plane: the
// chunk framing, rank-tagged entry encoding, stream reassembly and the
// reduction filters shared by the FE-side Session collectives
// (internal/core), the ICCL tree routing (internal/iccl) and the tools.
//
// A collective payload travels as a stream of bounded-size chunks — the
// same idiom as the chunked RPDTAB transfer (internal/proctab/stream.go)
// — closed by an end marker carrying a total for reassembly validation.
// Every chunk is preceded by a Header naming the operation, the
// session-wide collective tag, the chunk's index within its stream, and
// the rank range its entries cover; reduce streams additionally carry the
// filter name so every tree node combines with the same function.
package coll

import (
	"bytes"
	"errors"
	"fmt"

	"launchmon/internal/lmonp"
)

// Op identifies the collective operation a chunk belongs to.
type Op uint8

// The three collectives of the tool-data plane, their two tree-wide
// variants, the launch-time session-seed stream and the credit frame.
const (
	OpBroadcast Op = iota + 1 // FE → every daemon: raw byte stream
	opRetired                 // 2, a retired FE scatter: the ops after it keep their wire values
	OpGather                  // every daemon → FE: rank-tagged entries
	OpReduce                  // every daemon → FE: combined at interior nodes

	// OpSeed is the cut-through session-seed stream of the launch pipeline
	// (iccl.Forming.Feed): frame 0 carries the piggybacked FEData, later
	// frames carry RPDTAB chunks, and the end marker's Total is the table's
	// entry count. It never shares a link direction with the tool-data
	// collectives — the seed completes before the plane is usable — so it
	// needs no tag discipline; Tag is always 0.
	OpSeed

	opRetiredBarrier // 6, a retired tree barrier (iccl.Comm.Barrier is the one): the ops after it keep their wire values

	// OpAllGather is a gather whose reassembled rank table is then
	// redistributed down the tree, so every daemon ends with all K
	// contributions.
	OpAllGather
	// OpAllReduce is a reduce whose up-phase combine is redistributed down
	// the tree, so every daemon ends with the combined result.
	OpAllReduce

	// OpCredit is the flow-control frame of the credit window: a receiver
	// returns Index credits for the (link, tag) stream as it consumes
	// chunks, releasing the sender to put more chunks in flight. Credit
	// frames never carry a body and never consume credit themselves.
	OpCredit
)

// String names the op for diagnostics.
func (o Op) String() string {
	switch o {
	case OpBroadcast:
		return "broadcast"
	case OpGather:
		return "gather"
	case OpReduce:
		return "reduce"
	case OpSeed:
		return "seed"
	case OpAllGather:
		return "allgather"
	case OpAllReduce:
		return "allreduce"
	case OpCredit:
		return "credit"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// DefaultChunkBytes bounds one collective chunk body when the session does
// not configure a size (core.Options.CollChunkBytes).
const DefaultChunkBytes = 64 << 10

// DefaultWindow is the per-(link, tag) outstanding-chunk credit budget
// when the session does not configure one (core.Options.CollWindow):
// a sender may have at most this many un-credited chunks in flight on
// one link for one tagged stream, bounding interior queue depth at
// window × chunk bytes regardless of tree size or subtree skew.
const DefaultWindow = 32

// Window resolves a session's window setting: 0 (or less) selects
// DefaultWindow. It is the one place the window is resolved, for every rank's
// plane and for the front end that marks its broadcast's tail: a tree has
// one window, since a relay whose window were smaller than its stream's
// origin's would wait for credits that the Tail rule never sends.
func Window(w int) int {
	if w <= 0 {
		return DefaultWindow
	}
	return w
}

// Tag spaces of the collective plane. Lockstep (SPMD-ordered) session
// collectives use tags below MinUserTag; concurrent tagged streams
// allocated by Session.AllocTag live in [MinUserTag, MaxUserTag); tags
// above MaxUserTag number the lockstep sequence of the tree-wide
// operations (iccl's Plane.AllGather and AllReduce).
const (
	MinUserTag uint32 = 1 << 16
	MaxUserTag uint32 = 1 << 31
)

// FEStream keys tag's stream on the FE↔master hop, at both ends: a user tag
// is its own stream, all lockstep tags share stream 0, so a frame of another
// lockstep operation reaches the running one and fails its op/tag check
// eagerly. On tree links every tag is its own stream.
func FEStream(tag uint32) uint32 {
	if tag >= MinUserTag {
		return tag
	}
	return 0
}

// CreditFrame builds an OpCredit frame returning n credits for the
// tagged stream. Credits ride in the header's Index field: the frame
// has no body, no end marker and no checksum.
func CreditFrame(tag uint32, n uint32) Frame {
	return Frame{H: Header{Op: OpCredit, Tag: tag, Index: n}}
}

// Credits returns the credit count of an OpCredit frame.
func (f Frame) Credits() uint32 { return f.H.Index }

// Header precedes every collective chunk and end marker.
type Header struct {
	Op Op
	// Tail marks one of a stream's last window messages, set by an origin
	// that knows the stream's length (Merged): its receiver returns no
	// credit for it, since its sender has no message left to spend one on.
	// It rides the encoded op byte (tailBit).
	Tail   bool
	Tag    uint32 // session-wide collective sequence number
	Index  uint32 // chunk index within its per-link stream, from 0
	Lo, Hi uint32 // rank range [Lo, Hi) covered by this chunk's entries
	Filter string // reduction filter name (OpReduce streams only)
}

// tailBit is Header.Tail in the encoded op byte.
const tailBit = 0x80

// EncodedSize returns the size of the encoded header in bytes.
func (h Header) EncodedSize() int { return 1 + 4*4 + 4 + len(h.Filter) }

// AppendTo appends the encoded header (EncodedSize bytes) to b.
func (h Header) AppendTo(b []byte) []byte {
	op := byte(h.Op)
	if h.Tail {
		op |= tailBit
	}
	b = append(b, op)
	b = lmonp.AppendUint32(b, h.Tag)
	b = lmonp.AppendUint32(b, h.Index)
	b = lmonp.AppendUint32(b, h.Lo)
	b = lmonp.AppendUint32(b, h.Hi)
	return lmonp.AppendString(b, h.Filter)
}

// errBadHeader reports an undecodable or inconsistent collective header.
var errBadHeader = errors.New("coll: bad header")

// DecodeHeader consumes one encoded header from rd. A credit is never a
// Tail: its op byte with the Tail bit set is a bad header.
func DecodeHeader(rd *lmonp.Reader) (Header, error) {
	b := rd.Byte()
	h := Header{Op: Op(b &^ tailBit), Tail: b&tailBit != 0, Tag: rd.Uint32(), Index: rd.Uint32(), Lo: rd.Uint32(), Hi: rd.Uint32(), Filter: rd.String()}
	if err := rd.Err(); err != nil {
		return Header{}, err
	}
	if h.Op < OpBroadcast || h.Op > OpCredit || h.Op == opRetired || h.Op == opRetiredBarrier || h.Tail && h.Op == OpCredit {
		return Header{}, fmt.Errorf("%w: op %d", errBadHeader, b)
	}
	return h, nil
}

// Frame is one unit of a collective stream on any link: a chunk (Body
// holds data) or the end marker (Total holds the stream's byte or entry
// count, matching the proctab end-marker idiom). Sum is the frame's
// checksum: Sum64 of the body for chunks, the stream's rolling digest
// for end markers — what lets a receiver validate a stream at O(chunk)
// memory instead of retaining it for comparison. Producers (Packer,
// RawFrames, proctab.ChunkWriter) compute both. A chunk parsed off an ICCL
// tree link has Sum 0 — the tree wire carries only the End digest — unless
// its receiver checks the stream and computes it, as the seed stream does.
type Frame struct {
	H    Header
	Body []byte
	End  bool
	// Last marks a stream's last chunk carrying its end marker (withEnd),
	// whose Total and Digest it holds, and the marker split off it.
	Last   bool
	Total  uint64
	Sum    uint64
	Digest uint64

	// Wire is the tree-link message a received frame was parsed from (Body
	// aliases it); nil for a frame built locally. A node that relays the
	// frame unchanged sends Wire itself instead of encoding the frame again
	// for every child. Nothing else reads it: every encoder renders the
	// fields above, so a frame that is edited and sent on is never stale.
	Wire []byte
}

// withEnd returns chunk carrying end, the end marker that follows it.
func withEnd(chunk, end Frame) Frame {
	chunk.Last, chunk.Total, chunk.Digest = true, end.Total, end.Sum
	return chunk
}

// Merged returns a stream's frames as they travel on a tree of the given
// window: its last chunk carries the end marker (withEnd), unless it has no
// chunk, and its last window messages are its Tail. A sender spends a
// credit a message and starts with window of them, so only the credits of
// the messages before the Tail are ones it can spend.
func Merged(frames []Frame, window int) []Frame {
	if n := len(frames); n > 1 {
		frames[n-2] = withEnd(frames[n-2], frames[n-1])
		frames = frames[:n-1]
	}
	for i := max(0, len(frames)-window); i < len(frames); i++ {
		frames[i].H.Tail = true
	}
	return frames
}

// EndMarker returns the end marker a Last chunk carries.
func (f Frame) EndMarker() Frame {
	h := Header{Op: f.H.Op, Tag: f.H.Tag, Index: f.H.Index + 1, Filter: f.H.Filter}
	return Frame{H: h, End: true, Last: true, Total: f.Total, Sum: f.Digest}
}

// A frame travels between the front end and a master daemon as one
// TypeCollChunk (chunks) or TypeCollEnd (end markers, Last chunks) LMONP
// message: the header — plus the total, for end markers — the checksum and
// a Last chunk's total and digest in the LaunchMON section, the chunk body
// as piggybacked tool data.

// PayloadSize returns the size of the LaunchMON section of the frame's
// LMONP message.
func (f Frame) PayloadSize() int {
	switch {
	case f.End:
		return f.H.EncodedSize() + 16
	case f.Last:
		return f.H.EncodedSize() + 24
	}
	return f.H.EncodedSize() + 8
}

// AppendPayload appends the LaunchMON section (PayloadSize bytes) to b.
func (f Frame) AppendPayload(b []byte) []byte {
	b = f.H.AppendTo(b)
	if f.End {
		b = lmonp.AppendUint64(b, f.Total)
	}
	b = lmonp.AppendUint64(b, f.Sum)
	if f.Last && !f.End {
		b = lmonp.AppendUint64(lmonp.AppendUint64(b, f.Total), f.Digest)
	}
	return b
}

// EncodeMsg renders the frame as the two payload sections of its LMONP
// message (usr aliases Body).
func (f Frame) EncodeMsg() (payload, usr []byte) {
	payload = f.AppendPayload(make([]byte, 0, f.PayloadSize()))
	if f.End {
		return payload, nil
	}
	return payload, f.Body
}

// DecodeMsg parses the payload sections of a collective LMONP message
// (end selects the TypeCollEnd layout, a Last chunk when it is longer than
// an end marker's).
func DecodeMsg(end bool, payload, usr []byte) (Frame, error) {
	rd := lmonp.NewReader(payload)
	h, err := DecodeHeader(rd)
	if err != nil {
		return Frame{}, err
	}
	f := Frame{H: h, End: end && rd.Remaining() <= 16}
	f.Last = end && !f.End
	if f.End {
		f.Total = rd.Uint64()
	} else {
		f.Body = usr
	}
	f.Sum = rd.Uint64()
	if f.Last {
		f.Total, f.Digest = rd.Uint64(), rd.Uint64()
	}
	if err := rd.Err(); err != nil {
		return Frame{}, fmt.Errorf("%w: total and checksum: %v", errBadHeader, err)
	}
	if n := rd.Remaining(); n != 0 {
		return Frame{}, fmt.Errorf("%w: %d bytes after the checksum", errBadHeader, n)
	}
	return f, nil
}

// Entry is one rank-tagged blob inside a gather chunk.
type Entry struct {
	Rank int
	Blob []byte
}

// EntriesSize returns the size AppendEntries renders entries in.
func EntriesSize(entries []Entry) int {
	n := 4
	for _, e := range entries {
		n += 8 + len(e.Blob)
	}
	return n
}

// AppendEntries encodes a count-prefixed list of rank-tagged blobs.
func AppendEntries(b []byte, entries []Entry) []byte {
	b = lmonp.AppendUint32(b, uint32(len(entries)))
	for _, e := range entries {
		b = lmonp.AppendUint32(b, uint32(e.Rank))
		b = lmonp.AppendBytes(b, e.Blob)
	}
	return b
}

// DecodeEntries parses an entry list (blobs alias the input buffer).
func DecodeEntries(b []byte) ([]Entry, error) {
	rd := lmonp.NewReader(b)
	// Each entry needs at least its rank and blob-length fields.
	n := rd.Count(8)
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Entry{Rank: int(rd.Uint32()), Blob: rd.Bytes()})
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// splitRaw splits data into chunk bodies of at most maxBytes each
// (maxBytes <= 0 selects DefaultChunkBytes). Empty data yields a single
// empty chunk, mirroring proctab.EncodeChunks.
func splitRaw(data []byte, maxBytes int) [][]byte {
	if maxBytes <= 0 {
		maxBytes = DefaultChunkBytes
	}
	if len(data) == 0 {
		return [][]byte{nil}
	}
	var chunks [][]byte
	for len(data) > 0 {
		n := maxBytes
		if n > len(data) {
			n = len(data)
		}
		chunks = append(chunks, data[:n])
		data = data[n:]
	}
	return chunks
}

// RawFrames renders a raw byte stream (broadcast payloads, reduce
// results) as its chunk frames plus the end marker (Total = byte count).
func RawFrames(op Op, tag uint32, filter string, data []byte, maxBytes int) []Frame {
	chunks := splitRaw(data, maxBytes)
	out := make([]Frame, 0, len(chunks)+1)
	digest := lmonp.SumInit
	for i, ch := range chunks {
		sum := lmonp.Sum64(ch)
		digest = lmonp.FoldSum(digest, sum)
		out = append(out, Frame{
			H:    Header{Op: op, Tag: tag, Index: uint32(i), Filter: filter},
			Body: ch,
			Sum:  sum,
		})
	}
	out = append(out, Frame{
		H:     Header{Op: op, Tag: tag, Index: uint32(len(chunks)), Filter: filter},
		End:   true,
		Total: uint64(len(data)),
		Sum:   digest,
	})
	return out
}

// Packer coalesces rank-tagged entries into chunk frames of at most
// ChunkBytes each on one outgoing stream, emitting them through Emit as
// they fill, closed by an end marker carrying the entry total. It is the
// single implementation of the entry-packing invariant, shared by
// EntryFrames and the gather-coalescing hops. A single entry larger than
// ChunkBytes travels as one oversized chunk rather than an error, like an
// oversized proctab entry.
type Packer struct {
	Op         Op
	Tag        uint32
	ChunkBytes int
	Emit       func(Frame) error
	Merge      bool // End emits the last chunk carrying the end marker (withEnd)

	pend   []Entry
	size   int
	index  uint32
	total  uint64
	digest uint64
}

// Add appends one entry, flushing a frame when the pending chunk would
// exceed the bound. The blob is not copied: it is encoded into its chunk's
// body when that chunk flushes — at a later Add or at End, which every
// operation reaches before it returns — and must stay unchanged until then.
func (p *Packer) Add(e Entry) error {
	if p.ChunkBytes <= 0 {
		p.ChunkBytes = DefaultChunkBytes
	}
	add := 8 + len(e.Blob) // rank + blob-length prefixes + blob
	if len(p.pend) > 0 && p.size+add > p.ChunkBytes {
		if err := p.flush(); err != nil {
			return err
		}
	}
	if len(p.pend) == 0 {
		p.size = 4 // the chunk's entry-count prefix
	}
	p.pend = append(p.pend, e)
	p.size += add
	p.total++
	return nil
}

func (p *Packer) flush() error {
	if len(p.pend) == 0 {
		return nil
	}
	return p.Emit(p.chunk())
}

// chunk renders the pending entries as the stream's next chunk frame.
func (p *Packer) chunk() Frame {
	lo, hi := uint32(p.pend[0].Rank), uint32(p.pend[0].Rank)+1
	for _, e := range p.pend[1:] {
		if uint32(e.Rank) < lo {
			lo = uint32(e.Rank)
		}
		if uint32(e.Rank)+1 > hi {
			hi = uint32(e.Rank) + 1
		}
	}
	body := AppendEntries(make([]byte, 0, p.size), p.pend)
	sum := lmonp.Sum64(body)
	if p.index == 0 {
		p.digest = lmonp.SumInit
	}
	p.digest = lmonp.FoldSum(p.digest, sum)
	f := Frame{
		H:    Header{Op: p.Op, Tag: p.Tag, Index: p.index, Lo: lo, Hi: hi},
		Body: body,
		Sum:  sum,
	}
	p.pend, p.size = p.pend[:0], 0
	p.index++
	return f
}

// End flushes the final partial chunk and emits the end marker — one frame,
// the chunk carrying the marker, under Merge.
func (p *Packer) End() error {
	if p.Merge && len(p.pend) > 0 {
		return p.Emit(withEnd(p.chunk(), p.end()))
	}
	if err := p.flush(); err != nil {
		return err
	}
	return p.Emit(p.end())
}

// end renders the stream's end marker, behind every chunk rendered.
func (p *Packer) end() Frame {
	if p.index == 0 {
		p.digest = lmonp.SumInit
	}
	return Frame{H: Header{Op: p.Op, Tag: p.Tag, Index: p.index}, End: true, Total: p.total, Sum: p.digest}
}

// EntryFrames packs rank-tagged entries into chunk frames of roughly
// maxBytes each plus the end marker (Total = entry count).
func EntryFrames(op Op, tag uint32, entries []Entry, maxBytes int) []Frame {
	var out []Frame
	p := Packer{Op: op, Tag: tag, ChunkBytes: maxBytes, Emit: func(f Frame) error {
		out = append(out, f)
		return nil
	}}
	for _, e := range entries {
		p.Add(e)
	}
	p.End()
	return out
}

// Stream-reassembly errors (mirrored on the proctab Assembler contract;
// the duplicate/out-of-order distinction matters to tests and fuzzing —
// links are FIFO, so either means a corrupted or hostile peer).
var (
	errChunkDup   = errors.New("coll: duplicate or out-of-order chunk")
	errChunkGap   = errors.New("coll: chunk gap")
	errStreamMix  = errors.New("coll: mixed streams")
	errShortTotal = errors.New("coll: reassembly total mismatch")
)

// stream pins the op/tag/filter of a chunk stream and validates the chunk
// index sequence.
type stream struct {
	started bool
	h       Header // op/tag/filter of the stream
	next    uint32
}

func (s *stream) admit(h Header) error {
	if !s.started {
		s.started, s.h = true, h
	} else if h.Op != s.h.Op || h.Tag != s.h.Tag || h.Filter != s.h.Filter {
		return fmt.Errorf("%w: %v/tag %d/filter %q in %v/tag %d/filter %q stream",
			errStreamMix, h.Op, h.Tag, h.Filter, s.h.Op, s.h.Tag, s.h.Filter)
	}
	switch {
	case h.Index < s.next:
		return fmt.Errorf("%w: chunk %d after %d", errChunkDup, h.Index, s.next)
	case h.Index > s.next:
		return fmt.Errorf("%w: chunk %d, expected %d", errChunkGap, h.Index, s.next)
	}
	s.next++
	return nil
}

// SeqCheck validates a per-link chunk stream — op/tag/filter consistency
// and in-order, duplicate-free indices — without retaining data, for
// interior nodes that forward frames verbatim. AdmitFrame additionally
// rolls the chunks' sums into the stream digest, so every rank of a seed
// stream validates its link's bytes at O(chunk) memory.
type SeqCheck struct {
	s      stream
	digest uint64
	rolled bool
}

// Admit validates the next frame header of the stream.
func (c *SeqCheck) Admit(h Header) error { return c.s.admit(h) }

// AdmitFrame validates the next frame of a checksummed stream: header
// sequencing and — for the end marker — the sender's digest against the
// locally rolled one. A chunk's Sum is its receiver's Sum64 of the body it
// got (no link carries one), computed once, before AdmitFrame folds it into
// the digest, so a chunk changed on its way fails the stream at its End.
// Seed streams carry the piggybacked FEData as frame 0; it is excluded from
// the payload digest, so the link digest equals the digest of the RPDTAB
// chunk stream alone.
func (c *SeqCheck) AdmitFrame(f Frame) error {
	if err := c.s.admit(f.H); err != nil {
		return err
	}
	if !c.rolled {
		c.digest = lmonp.SumInit
		c.rolled = true
	}
	if f.End {
		if f.Sum != c.digest {
			return fmt.Errorf("coll: %v stream digest mismatch: end marker %#x, rolled %#x", f.H.Op, f.Sum, c.digest)
		}
		return nil
	}
	if f.H.Op != OpSeed || f.H.Index >= 1 {
		c.digest = lmonp.FoldSum(c.digest, f.Sum)
	}
	return nil
}

// RawAssembler reassembles a raw chunk stream (broadcast payloads,
// reduce results), validating in-order duplicate-free chunk indices. It
// keeps the chunk bodies it admitted — aliasing the messages they arrived
// in, which nobody writes to — and copies them exactly once, into the
// result Finish allocates. Before the first chunk it holds nothing; the
// first sizes the chunk list for the common stream (rawChunksHint).
type RawAssembler struct {
	s      stream
	chunks [][]byte
	size   uint64
}

// Add validates one chunk and keeps its body (not a copy: body must stay
// unchanged until Finish).
func (a *RawAssembler) Add(h Header, body []byte) error {
	if err := a.s.admit(h); err != nil {
		return err
	}
	if a.chunks == nil {
		a.chunks = make([][]byte, 0, rawChunksHint)
	}
	a.chunks = append(a.chunks, body)
	a.size += uint64(len(body))
	return nil
}

// rawChunksHint is the chunk-list capacity a RawAssembler starts from: a
// 32 KiB payload in 4 KiB chunks fills it without growing.
const rawChunksHint = 8

// Finish validates the end marker (h continues the stream's index
// sequence; total is the stream's byte count) and returns the payload in
// a buffer of its own.
func (a *RawAssembler) Finish(h Header, total uint64) ([]byte, error) {
	if err := a.s.admit(h); err != nil {
		return nil, err
	}
	if a.size != total {
		return nil, fmt.Errorf("%w: reassembled %d bytes, end marker says %d", errShortTotal, a.size, total)
	}
	if total == 0 {
		return nil, nil
	}
	data := bytes.Join(a.chunks, nil) // allocated without zeroing
	a.chunks = nil
	return data, nil
}

// RankAssembler reassembles a rank-tagged entry stream (the FE side of a
// gather), validating chunk order and that no rank contributes twice.
type RankAssembler struct {
	s      stream
	byRank map[int][]byte
}

// Add validates one chunk and indexes its entries by rank.
func (a *RankAssembler) Add(h Header, body []byte) error {
	if err := a.s.admit(h); err != nil {
		return err
	}
	entries, err := DecodeEntries(body)
	if err != nil {
		return err
	}
	if a.byRank == nil {
		a.byRank = make(map[int][]byte)
	}
	for _, e := range entries {
		if _, dup := a.byRank[e.Rank]; dup {
			return fmt.Errorf("coll: rank %d contributed twice", e.Rank)
		}
		a.byRank[e.Rank] = append([]byte(nil), e.Blob...)
	}
	return nil
}

// Finish validates the end marker against the expected participant count
// and returns the contributions indexed by rank (every rank in [0, size)
// exactly once).
func (a *RankAssembler) Finish(h Header, total uint64, size int) ([][]byte, error) {
	if err := a.s.admit(h); err != nil {
		return nil, err
	}
	if total != uint64(len(a.byRank)) || len(a.byRank) != size {
		return nil, fmt.Errorf("%w: %d contributions, end marker says %d, expected %d",
			errShortTotal, len(a.byRank), total, size)
	}
	out := make([][]byte, size)
	for rk, blob := range a.byRank {
		if rk < 0 || rk >= size {
			return nil, fmt.Errorf("coll: contribution from out-of-range rank %d", rk)
		}
		out[rk] = blob
	}
	return out, nil
}
