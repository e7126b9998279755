// Package lmonp implements the LMONP application-layer protocol
// (paper §3.5): the compact message format spoken between LaunchMON's
// components. A message has a fixed 16-byte header followed by two
// variably sized payload sections — one for LaunchMON's own data and one
// for piggybacked client-tool ("user") data, which is how tools bundle
// their bootstrap information with LaunchMON's handshake exchanges.
//
// Header layout (big endian):
//
//	byte  0      : 3-bit message class | 5-bit protocol version
//	byte  1      : message type (tag), meaningful within the class
//	bytes 2-3    : flags
//	bytes 4-7    : LaunchMON payload length
//	bytes 8-11   : user payload length
//	bytes 12-15  : sequence number
//
// LMONP only connects pairs of component representatives (front end ↔
// engine, front end ↔ master back-end daemon, front end ↔ master
// middleware daemon), which keeps the front end's connection count O(1)
// regardless of job size.
package lmonp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// version is the protocol version carried in every header.
const version = 1

// headerSize is the fixed LMONP header size in bytes.
const headerSize = 16

// MaxPayload bounds each payload section, protecting receivers from
// corrupt or hostile length fields.
const MaxPayload = 1 << 28

// MsgClass is the 3-bit communication-pair class.
type MsgClass uint8

// The three assigned classes; the remaining five values are reserved
// (the paper suggests e.g. a middleware↔middleware class for spanning
// multiple communication fabrics).
const (
	ClassFEEngine MsgClass = 1 // front end ↔ LaunchMON engine
	ClassFEBE     MsgClass = 2 // front end ↔ master back-end daemon
	ClassFEMW     MsgClass = 3 // front end ↔ master middleware daemon
)

// String names the class for diagnostics.
func (c MsgClass) String() string {
	switch c {
	case ClassFEEngine:
		return "fe-engine"
	case ClassFEBE:
		return "fe-be"
	case ClassFEMW:
		return "fe-mw"
	default:
		return fmt.Sprintf("reserved(%d)", uint8(c))
	}
}

// MsgType tags a message within its class.
type MsgType uint8

// Message types. Tags are flat across classes for simplicity; each is
// documented with the class it travels in. The blank entries are retired
// types (the monolithic RPDTAB messages, a shutdown request nothing ever
// sent): they keep the values of the types behind them, and so every wire
// byte, where they were.
const (
	// fe-engine
	TypeLaunchReq MsgType = iota + 1 // FE→Engine: launchAndSpawn request
	TypeAttachReq                    // FE→Engine: attachAndSpawn request
	TypeSpawnReq                     // FE→Engine: spawn daemons for an attached job
	_                                // 4, retired
	TypeReady                        // Engine→FE / BE→FE / MW→FE: component ready
	TypeDetach                       // FE→Engine: detach from job, leave it running
	TypeKill                         // FE→Engine: kill job and daemons
	_                                // 8, retired
	TypeStatus                       // Engine→FE: async status notification

	// fe-be / fe-mw
	TypeHandshake // FE→BE/MW master: session parameters (+ piggyback)
	TypeUsrData   // either direction: pure tool payload
	_             // 12, retired

	// RPDTAB streaming (any proctab-carrying class): the table travels as
	// bounded-size chunks so peak payload memory stays flat at
	// million-task scale, closed by an end marker carrying the total
	// entry count for reassembly validation.
	TypeProctabChunk // sender→receiver: one independently decodable RPDTAB chunk
	TypeProctabEnd   // sender→receiver: stream end; payload = uint64 total entries

	// Fault subsystem (fe-engine and fe-be): an asynchronous session
	// status transition — job exited, daemon lost, session torn down.
	// Payload codec lives in internal/health (EncodeEvent/DecodeEvent).
	TypeStatusEvent // engine→FE / BE master→FE: async status event

	// Collective tool-data plane (fe-be): user payloads routed over the
	// ICCL tree as bounded-size chunk streams. Payload carries the
	// collective header (op, tag, chunk index, rank range, filter —
	// codec in internal/coll), UsrData the chunk body; the end marker
	// carries the stream total for reassembly validation.
	TypeCollChunk // either direction: one collective chunk
	TypeCollEnd   // either direction: stream end; payload = header + uint64 total

	// Observability plane (fe-be / fe-mw): a merged obs.Snapshot blob the
	// master daemon pushes to the front end — once at session finalize,
	// covering the whole daemon set via the tree fold (codec in
	// internal/obs).
	TypeObsMetrics // BE/MW master→FE: harvested metrics snapshot
)

var msgTypeNames = [...]string{
	TypeLaunchReq: "launch-req", TypeAttachReq: "attach-req",
	TypeSpawnReq: "spawn-req", TypeReady: "ready",
	TypeDetach: "detach", TypeKill: "kill", TypeStatus: "status",
	TypeHandshake: "handshake", TypeUsrData: "usrdata",
	TypeProctabChunk: "proctab-chunk",
	TypeProctabEnd:   "proctab-end", TypeStatusEvent: "status-event",
	TypeCollChunk: "coll-chunk", TypeCollEnd: "coll-end",
	TypeObsMetrics: "obs-metrics",
}

// String names the type for diagnostics.
func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) && msgTypeNames[t] != "" {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Msg is one LMONP message.
type Msg struct {
	Class   MsgClass
	Type    MsgType
	Flags   uint16
	Seq     uint32
	Payload []byte // LaunchMON data section
	UsrData []byte // piggybacked tool data section
}

// Errors returned by the codec.
var (
	errBadVersion  = errors.New("lmonp: bad protocol version")
	ErrTooLarge    = errors.New("lmonp: payload exceeds MaxPayload")
	errShortHeader = errors.New("lmonp: short header")
	errLength      = errors.New("lmonp: message length disagrees with its header")
)

// wireSize returns the total encoded size of the message in bytes.
func (m *Msg) wireSize() int { return headerSize + len(m.Payload) + len(m.UsrData) }

// Begin starts a message's wire encoding in one buffer of exactly its wire
// size: the header (sequence number zero), behind which the caller appends
// plen bytes of LaunchMON payload and then ulen bytes of tool data. It is
// how a sender renders a message straight into the buffer the network will
// carry (Conn.SendEncoded) instead of through intermediate section slices.
// Oversized sections — including a combined payload beyond MaxPayload —
// are rejected here, with the offending sizes, so tool payloads that no
// peer could accept fail at the sender instead of surfacing as a truncated
// read on the other end of the connection.
func Begin(class MsgClass, typ MsgType, plen, ulen int) ([]byte, error) {
	if plen > MaxPayload || ulen > MaxPayload || plen+ulen > MaxPayload {
		return nil, fmt.Errorf("%w: payload %d + usrdata %d bytes (cap %d)",
			ErrTooLarge, plen, ulen, MaxPayload)
	}
	buf := make([]byte, headerSize, headerSize+plen+ulen)
	buf[0] = byte(class&0x7)<<5 | version&0x1f
	buf[1] = byte(typ)
	binary.BigEndian.PutUint32(buf[4:8], uint32(plen))
	binary.BigEndian.PutUint32(buf[8:12], uint32(ulen))
	return buf, nil
}

// Encode renders the message into a single buffer (see Begin for the size
// limits).
func (m *Msg) Encode() ([]byte, error) {
	buf, err := Begin(m.Class, m.Type, len(m.Payload), len(m.UsrData))
	if err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint16(buf[2:4], m.Flags)
	binary.BigEndian.PutUint32(buf[12:16], m.Seq)
	return append(append(buf, m.Payload...), m.UsrData...), nil
}

// SendMessage puts one whole network message on w: by ownership, with no
// further copy, when w takes messages that way (simnet.Conn.Send — msg must
// not be written to afterwards), else as one Write call.
func SendMessage(w io.Writer, msg []byte) error {
	if s, ok := w.(interface{ Send(msg []byte) error }); ok {
		return s.Send(msg)
	}
	_, err := w.Write(msg)
	return err
}

// Write encodes the message and puts it on w as one network message.
func Write(w io.Writer, m *Msg) error {
	buf, err := m.Encode()
	if err != nil {
		return err
	}
	return SendMessage(w, buf)
}

// Read reads exactly one message from r: its header, then the sections
// the header announces, into one buffer that decode takes in place.
func Read(r io.Reader) (*Msg, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, errShortHeader
		}
		return nil, err
	}
	n, err := sectionsLen(hdr[:])
	if err != nil {
		return nil, err
	}
	buf := make([]byte, headerSize+n)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[headerSize:]); err != nil {
		return nil, fmt.Errorf("lmonp: truncated message: %w", err)
	}
	return decode(buf)
}

// sectionsLen checks a header's version and section lengths and returns
// how many bytes of sections follow it.
func sectionsLen(hdr []byte) (int, error) {
	if v := hdr[0] & 0x1f; v != version {
		return 0, fmt.Errorf("%w: got %d want %d", errBadVersion, v, version)
	}
	plen := binary.BigEndian.Uint32(hdr[4:8])
	ulen := binary.BigEndian.Uint32(hdr[8:12])
	if plen > MaxPayload || ulen > MaxPayload || uint64(plen)+uint64(ulen) > MaxPayload {
		return 0, fmt.Errorf("%w: payload %d + usrdata %d bytes (cap %d)",
			ErrTooLarge, plen, ulen, MaxPayload)
	}
	return int(plen + ulen), nil
}

// decode takes one whole LMONP message where it lies: Payload and UsrData
// alias msg (nil when empty), and a message longer or shorter than its
// header says is refused rather than read into its neighbour.
func decode(msg []byte) (*Msg, error) {
	if len(msg) < headerSize {
		return nil, errShortHeader
	}
	n, err := sectionsLen(msg)
	if err != nil {
		return nil, err
	}
	if len(msg) != headerSize+n {
		return nil, fmt.Errorf("%w: %d bytes, its header says %d", errLength, len(msg), headerSize+n)
	}
	m := &Msg{
		Class: MsgClass(msg[0] >> 5),
		Type:  MsgType(msg[1]),
		Flags: binary.BigEndian.Uint16(msg[2:4]),
		Seq:   binary.BigEndian.Uint32(msg[12:16]),
	}
	split := headerSize + int(binary.BigEndian.Uint32(msg[4:8]))
	if split > headerSize {
		m.Payload = msg[headerSize:split:split]
	}
	if len(msg) > split {
		m.UsrData = msg[split:]
	}
	return m, nil
}

// Endpoint is the message transport a Conn runs over (simnet.Conn is
// one): each Send arrives as one whole message, taken by RecvMessage or,
// while a handler is installed, delivered to it.
type Endpoint interface {
	Send(msg []byte) error
	RecvMessage() ([]byte, error)
	Handle(fn func(msg []byte, err error))
	Close() error
	Sever()
}

// Conn is an LMONP connection: one message per network message, with
// per-connection sequence numbering. Send is safe for concurrent use
// (sessions running in parallel goroutines may share helpers that write);
// Recv assumes a single reader per connection, which is the LMONP
// ownership model — every connection has exactly one component
// representative reading it. A received message's sections alias the
// delivered buffer and must not be written to.
type Conn struct {
	ep Endpoint

	sendMu sync.Mutex
	seq    uint32
}

// NewConn frames ep for LMONP.
func NewConn(ep Endpoint) *Conn { return &Conn{ep: ep} }

// Send encodes a message, stamping the connection's next sequence number,
// and sends it.
func (c *Conn) Send(m *Msg) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.seq++
	m.Seq = c.seq
	buf, err := m.Encode()
	if err != nil {
		return err
	}
	return c.ep.Send(buf)
}

// SendEncoded is Send for a message rendered with Begin (and filled to its
// wire size): it stamps the next sequence number into the buffer and hands
// the buffer itself to the endpoint.
func (c *Conn) SendEncoded(buf []byte) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.seq++
	binary.BigEndian.PutUint32(buf[12:16], c.seq)
	return c.ep.Send(buf)
}

// Recv receives the next message. One that does not decode is refused
// alone: the message after it is read as its own.
func (c *Conn) Recv() (*Msg, error) {
	msg, err := c.ep.RecvMessage()
	if err != nil {
		return nil, err
	}
	return decode(msg)
}

// Handle switches the connection's read side to event-driven delivery:
// fn runs on the vtime scheduler once per message, in arrival order, and
// with the error that ended the stream (io.EOF after a clean close) or made
// a delivery undecodable. It replaces a goroutine parked in Recv for the
// rest of the connection's life and must not block.
func (c *Conn) Handle(fn func(*Msg, error)) {
	c.ep.Handle(func(buf []byte, err error) {
		if err != nil {
			fn(nil, err)
			return
		}
		fn(decode(buf))
	})
}

// Expect reads the next message and verifies its class and type.
func (c *Conn) Expect(class MsgClass, typ MsgType) (*Msg, error) {
	m, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if m.Class != class || m.Type != typ {
		return nil, fmt.Errorf("lmonp: expected %v/%v, got %v/%v", class, typ, m.Class, m.Type)
	}
	return m, nil
}

// Close closes the endpoint.
func (c *Conn) Close() error { return c.ep.Close() }

// Sever force-severs the endpoint: the peer observes simnet.ErrPeerDead
// instead of a clean EOF. This is how cluster.Proc.Kill tears down a
// killed process's open connections — the conn is adopted by the owning
// proc, and teardown must look like a node loss, not a graceful close.
func (c *Conn) Sever() { c.ep.Sever() }
