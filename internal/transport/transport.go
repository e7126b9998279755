// Package transport is the connection-lifecycle layer underneath the
// LaunchMON FE/BE/MW APIs. One front-end process owns exactly one Mux — a
// single listener — and every peer that must reach the front end (the
// per-session engine, the master back-end daemon, the master middleware
// daemon) dials that one address and identifies itself with a small hello
// frame carrying its session ID and role. The Mux demultiplexes incoming
// connections onto per-session, per-role queues, so N concurrent tool
// sessions share one listener without their LMONP streams ever crossing:
// sessions do not depend on connection arrival order, and a dial belonging
// to session A can never be handed to session B.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"launchmon/internal/lmonp"
	"launchmon/internal/simnet"
)

// Role identifies which LaunchMON component representative is dialing the
// front end.
type Role uint8

// The three dialing roles, mirroring the three LMONP connection classes.
const (
	RoleEngine Role = 1 // the session's LaunchMON engine
	RoleBE     Role = 2 // the master back-end daemon
	RoleMW     Role = 3 // the master middleware daemon
)

// String names the role for diagnostics.
func (r Role) String() string {
	switch r {
	case RoleEngine:
		return "engine"
	case RoleBE:
		return "be-master"
	case RoleMW:
		return "mw-master"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

func (r Role) valid() bool { return r >= RoleEngine && r <= RoleMW }

// Hello is the connection preamble every dialer sends immediately after
// connecting to the front-end mux.
type Hello struct {
	Session int
	Role    Role
}

// Hello frame layout (big endian, one Write call / one simulated message):
//
//	bytes 0-3  : magic "LMTX"
//	byte  4    : hello version
//	byte  5    : role
//	bytes 6-7  : reserved (zero)
//	bytes 8-11 : session id
const (
	helloMagic   = 0x4c4d5458 // "LMTX"
	helloVersion = 1
	helloSize    = 12
)

// Errors returned by the hello codec and the mux.
var (
	errBadHello       = errors.New("transport: bad hello frame")
	errMuxClosed      = errors.New("transport: mux closed")
	errSessionExists  = errors.New("transport: session already registered")
	errEndpointClosed = errors.New("transport: endpoint closed")
	errAcceptTimeout  = errors.New("transport: accept timeout")
)

// encodeHello renders the hello frame.
func encodeHello(h Hello) ([]byte, error) {
	if !h.Role.valid() {
		return nil, fmt.Errorf("%w: invalid role %d", errBadHello, h.Role)
	}
	if h.Session < 0 || int64(h.Session) > int64(^uint32(0)) {
		return nil, fmt.Errorf("%w: session %d out of range", errBadHello, h.Session)
	}
	buf := make([]byte, helloSize)
	binary.BigEndian.PutUint32(buf[0:4], helloMagic)
	buf[4] = helloVersion
	buf[5] = byte(h.Role)
	binary.BigEndian.PutUint32(buf[8:12], uint32(h.Session))
	return buf, nil
}

// WriteHello puts the hello frame on w as one simulated network message.
func WriteHello(w io.Writer, h Hello) error {
	buf, err := encodeHello(h)
	if err != nil {
		return err
	}
	return lmonp.SendMessage(w, buf)
}

// ReadHello reads one hello frame.
func ReadHello(r io.Reader) (Hello, error) {
	var buf [helloSize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return Hello{}, fmt.Errorf("%w: %v", errBadHello, err)
	}
	if binary.BigEndian.Uint32(buf[0:4]) != helloMagic {
		return Hello{}, fmt.Errorf("%w: bad magic", errBadHello)
	}
	if buf[4] != helloVersion {
		return Hello{}, fmt.Errorf("%w: version %d, want %d", errBadHello, buf[4], helloVersion)
	}
	h := Hello{Session: int(binary.BigEndian.Uint32(buf[8:12])), Role: Role(buf[5])}
	if !h.Role.valid() {
		return Hello{}, fmt.Errorf("%w: invalid role %d", errBadHello, buf[5])
	}
	return h, nil
}

// Dial connects from host to the front-end mux at addr, announces the
// session/role hello, and returns the connection framed for LMONP.
func Dial(host *simnet.Host, addr simnet.Addr, session int, role Role) (*lmonp.Conn, error) {
	raw, err := host.Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := WriteHello(raw, Hello{Session: session, Role: role}); err != nil {
		raw.Close()
		return nil, err
	}
	return lmonp.NewConn(raw), nil
}
