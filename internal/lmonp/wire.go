package lmonp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file provides the compact binary encoders LaunchMON uses inside
// LMONP payload sections: length-prefixed strings, string lists, and
// key/value maps. They are deliberately simple and allocation-conscious —
// payload sizes feed the performance model (RPDTAB and handshake message
// sizes grow linearly with job scale), so the encodings must be faithful
// to what a C implementation would ship.

// errTruncated reports a payload shorter than its own length fields claim.
var errTruncated = errors.New("lmonp: truncated field")

// NewFrame starts a frame message — a 32-bit length prefix and the payload
// behind it, the request/response framing of RM-internal and ICCL traffic
// that does not need a full LMONP header — in one buffer of exactly its
// wire size: the prefix for an n-byte payload, which the caller appends
// before handing the buffer to SendFrame.
func NewFrame(n int) []byte {
	return AppendUint32(make([]byte, 0, 4+n), uint32(n))
}

// SendFrame puts a frame message built with NewFrame on w as one network
// message (SendMessage: by ownership when w takes it that way).
func SendFrame(w io.Writer, msg []byte) error {
	if len(msg) < 4 || uint32(len(msg)-4) != binary.BigEndian.Uint32(msg) {
		return fmt.Errorf("lmonp: frame message of %d bytes does not match its length prefix", len(msg))
	}
	return SendMessage(w, msg)
}

// WriteFrame frames payload (one copy, into the message buffer) and sends
// it; the caller keeps payload.
func WriteFrame(w io.Writer, payload []byte) error {
	return SendFrame(w, append(NewFrame(len(payload)), payload...))
}

// MessageConn is the event-driven face of a message-preserving transport
// (simnet.Conn implements it): fn is invoked once per delivered message and
// once more with a terminal error. It is what lets frame consumers become
// scheduler-driven state machines instead of goroutines parked in
// RecvMessage.
type MessageConn interface {
	Handle(fn func(msg []byte, err error))
}

// HandleFrames registers a frame-level callback on a message connection
// whose peer sends one frame per message (the invariant all LMONP and ICCL
// traffic keeps: a frame is a single network message). Each delivery is
// unwrapped to its payload; a malformed message surfaces as an error and no
// further callbacks fire for it. fn runs on the vtime scheduler and must
// not block.
func HandleFrames(c MessageConn, fn func(frame []byte, err error)) {
	c.Handle(func(msg []byte, err error) {
		if err != nil {
			fn(nil, err)
			return
		}
		frame, err := FrameFromMessage(msg)
		fn(frame, err)
	})
}

// FrameFromMessage unwraps one delivered network message into the frame
// payload behind its length prefix (aliasing msg), enforcing that the
// message carries exactly one complete frame.
func FrameFromMessage(msg []byte) ([]byte, error) {
	if len(msg) < 4 {
		return nil, fmt.Errorf("lmonp: short frame message (%d bytes)", len(msg))
	}
	n := binary.BigEndian.Uint32(msg[:4])
	if n > MaxPayload {
		return nil, ErrTooLarge
	}
	if uint32(len(msg)-4) != n {
		return nil, fmt.Errorf("lmonp: frame message length %d does not match prefix %d", len(msg)-4, n)
	}
	return msg[4:], nil
}

// RecvFrame receives the next message on c and unwraps the one frame it
// carries (FrameFromMessage: aliasing the message).
func RecvFrame(c interface{ RecvMessage() ([]byte, error) }) ([]byte, error) {
	msg, err := c.RecvMessage()
	if err != nil {
		return nil, err
	}
	return FrameFromMessage(msg)
}

// AppendUint32 appends v big-endian.
func AppendUint32(b []byte, v uint32) []byte {
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], v)
	return append(b, tmp[:]...)
}

// AppendUint64 appends v big-endian.
func AppendUint64(b []byte, v uint64) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], v)
	return append(b, tmp[:]...)
}

// AppendString appends a 32-bit length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// AppendBytes appends a 32-bit length-prefixed byte slice.
func AppendBytes(b, p []byte) []byte {
	b = AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

// AppendStringList appends a count-prefixed list of strings.
func AppendStringList(b []byte, ss []string) []byte {
	b = AppendUint32(b, uint32(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// AppendStringMap appends a count-prefixed key/value map in sorted-input
// order (callers sort when determinism matters).
func AppendStringMap(b []byte, kv [][2]string) []byte {
	b = AppendUint32(b, uint32(len(kv)))
	for _, e := range kv {
		b = AppendString(b, e[0])
		b = AppendString(b, e[1])
	}
	return b
}

// Reader consumes the encodings above. It keeps the first error: a read
// that cannot be satisfied returns the zero value and fails the Reader, and
// every read after it fails too, so a decoder reads all its fields in a row
// and checks Err once — no field of a corrupt payload is ever taken for
// real because an error before it went unchecked.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Err returns the error of the first read that failed, nil if none has.
func (r *Reader) Err() error { return r.err }

// short fails a fixed-width read: the first failure is kept.
func (r *Reader) short() {
	if r.err == nil {
		r.err = errTruncated
	}
}

// Byte reads a single byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.Remaining() < 1 {
		r.short()
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uint32 reads a big-endian uint32.
func (r *Reader) Uint32() uint32 {
	if r.err != nil || r.Remaining() < 4 {
		r.short()
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// Uint64 reads a big-endian uint64.
func (r *Reader) Uint64() uint64 {
	if r.err != nil || r.Remaining() < 8 {
		r.short()
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// overrun fails a read whose prefix claims more than the buffer holds.
func (r *Reader) overrun(what string, n uint64) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s of %d bytes, %d remain", errTruncated, what, n, r.Remaining())
	}
}

// Bytes reads a length-prefixed byte slice (aliasing the input buffer).
func (r *Reader) Bytes() []byte {
	n := r.Uint32()
	if r.err != nil || uint32(r.Remaining()) < n {
		r.overrun("field", uint64(n))
		return nil
	}
	p := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return p
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Count reads the count prefix of a list whose entries each encode to at
// least min (> 0) bytes, failing when the unread bytes cannot hold that
// many: a decoder may size an allocation by the result and loop to it.
func (r *Reader) Count(min int) int {
	n := r.Uint32()
	if r.err != nil || uint64(n)*uint64(min) > uint64(r.Remaining()) {
		r.overrun("list", uint64(n)*uint64(min))
		return 0
	}
	return int(n)
}

// StringList reads a count-prefixed string list.
func (r *Reader) StringList() []string {
	// Each entry needs at least its own 4-byte length prefix.
	n := r.Count(4)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.String())
	}
	if r.err != nil {
		return nil
	}
	return out
}

// StringMap reads a count-prefixed key/value list.
func (r *Reader) StringMap() [][2]string {
	// Each entry is two length-prefixed strings: at least 8 bytes.
	n := r.Count(8)
	out := make([][2]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, [2]string{r.String(), r.String()})
	}
	if r.err != nil {
		return nil
	}
	return out
}

// StringMapBytes reads what StringMap reads, checked the same way, and
// returns its encoding (aliasing the input buffer) instead of building
// strings: NewReader(b).StringMap() decodes it later, if at all.
func (r *Reader) StringMapBytes() []byte {
	start := r.off
	for n := r.Count(8); n > 0; n-- {
		r.Bytes()
		r.Bytes()
	}
	if r.err != nil {
		return nil
	}
	return r.buf[start:r.off]
}
