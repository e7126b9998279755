// Package tbon implements an MRNet-like Tree-Based Overlay Network
// (TBŌN) one level deep, as STAT runs it in Figure 6: a front end and leaf
// back-ends, carrying multicast requests downstream and filter-reduced
// responses upstream (Roth, Arnold & Miller, SC'03 — the
// infrastructure STAT builds on, paper §5.2).
//
// Two bootstrap paths exist, matching the paper's Figure 6 comparison:
//
//   - native: the front end launches every daemon itself through the rsh
//     substrate (internal/rsh), sequentially — the pre-LaunchMON ad hoc
//     mechanism; and
//   - LaunchMON: daemons arrive via the RM through internal/core, receive
//     the parent address from piggybacked tool data, and dial in.
//
// Either way the overlay protocol afterwards is identical; only launch
// and connection establishment differ.
package tbon

import (
	"errors"
	"fmt"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/lmonp"
	"launchmon/internal/rsh"
	"launchmon/internal/simnet"
)

// Environment keys for natively launched daemons.
const (
	EnvParent = "TBON_PARENT" // parent host:port to dial
	EnvRank   = "TBON_RANK"   // leaf rank
)

// Packet is one TBŌN message. A request names the filter its reply wave
// is merged with, as MRNet's stream set-up does; the front end merges with
// the function its caller passes.
type Packet struct {
	Stream uint32
	Tag    uint32
	Filter string // the reply wave's merge filter, by name
	Data   []byte
}

func encodePacket(p Packet) []byte {
	b := lmonp.AppendUint32(nil, p.Stream)
	b = lmonp.AppendUint32(b, p.Tag)
	b = lmonp.AppendString(b, p.Filter)
	return lmonp.AppendBytes(b, p.Data)
}

func decodePacket(raw []byte) (Packet, error) {
	rd := lmonp.NewReader(raw)
	p := Packet{Stream: rd.Uint32(), Tag: rd.Uint32(), Filter: rd.String()}
	p.Data = append([]byte(nil), rd.Bytes()...)
	return p, rd.Err()
}

// The overlay's cost model. perChildAcceptCost is the root's CPU cost to
// accept and set up one child connection (thread spin-up, fd bookkeeping —
// MRNet's dominant serial term at the root); handshakeCost is the
// per-child protocol handshake processing (≈0.77 s at 256 children,
// the paper's measured MRNet handshake share).
const (
	perChildAcceptCost = 4 * time.Millisecond
	handshakeCost      = 3 * time.Millisecond
)

// FrontEnd is the overlay root, owned by the tool's front-end process.
type FrontEnd struct {
	p        *cluster.Proc
	listener *simnet.Listener
	children []*simnet.Conn
}

// NewFrontEnd opens the overlay root on an ephemeral port.
func NewFrontEnd(p *cluster.Proc) (*FrontEnd, error) {
	l, err := p.Host().Listen(0)
	if err != nil {
		return nil, err
	}
	return &FrontEnd{p: p, listener: l}, nil
}

// Addr returns the root's listen address (host:port) for daemons to dial.
func (fe *FrontEnd) Addr() string { return fe.listener.Addr().String() }

// AcceptChildren accepts exactly n direct children, charging the per-child
// accept and handshake costs — the connection-establishment phase whose
// serial root cost dominates MRNet's 1-deep startup. A leaf's hello is its
// rank and the leaf count of its subtree, 1; the root checks its form only.
func (fe *FrontEnd) AcceptChildren(n int) error {
	for i := 0; i < n; i++ {
		conn, err := fe.listener.Accept()
		if err != nil {
			return err
		}
		fe.p.Compute(perChildAcceptCost)
		hello, err := lmonp.RecvFrame(conn)
		if err != nil {
			conn.Close()
			return err
		}
		fe.p.Compute(handshakeCost)
		rd := lmonp.NewReader(hello)
		rd.Uint32()
		rd.Uint32()
		if err := rd.Err(); err != nil {
			conn.Close()
			return fmt.Errorf("tbon: bad hello: %w", err)
		}
		fe.children = append(fe.children, conn)
	}
	return nil
}

// multicast sends pkt down the whole tree.
func (fe *FrontEnd) multicast(pkt Packet) error {
	raw := encodePacket(pkt)
	for _, c := range fe.children {
		if err := lmonp.WriteFrame(c, raw); err != nil {
			return err
		}
	}
	return nil
}

// Request multicasts a request and returns the responses folded with
// merge — the round-trip STAT uses per stack-sample wave. merge must be
// associative; it is passed a nil accumulator with the first response.
func (fe *FrontEnd) Request(pkt Packet, merge func(acc, reply []byte) []byte) ([]byte, error) {
	if err := fe.multicast(pkt); err != nil {
		return nil, err
	}
	var acc []byte
	for _, c := range fe.children {
		raw, err := lmonp.RecvFrame(c)
		if err != nil {
			return nil, err
		}
		reply, err := decodePacket(raw)
		if err != nil {
			return nil, err
		}
		fe.p.Compute(handshakeCost / 3) // per-packet processing
		acc = merge(acc, reply.Data)
	}
	return acc, nil
}

// Close shuts the overlay down (children observe EOF).
func (fe *FrontEnd) Close() {
	for _, c := range fe.children {
		c.Close()
	}
	fe.listener.Close()
}

// Leaf is a back-end endpoint of the overlay.
type Leaf struct {
	conn *simnet.Conn
}

// errNoParent reports a missing/invalid parent address.
var errNoParent = errors.New("tbon: no parent address")

// ConnectLeaf dials the parent, retrying while it is still coming up, and
// sends the hello. rank identifies the leaf.
func ConnectLeaf(p *cluster.Proc, parentAddr string, rank int) (*Leaf, error) {
	addr, err := simnet.ParseAddr(parentAddr)
	if err != nil {
		return nil, fmt.Errorf("%w: %q", errNoParent, parentAddr)
	}
	var conn *simnet.Conn
	for attempt := 0; attempt < 2000; attempt++ {
		if conn, err = p.Host().Dial(addr); err == nil {
			break
		}
		p.Sim().Sleep(5 * time.Millisecond)
	}
	if err != nil {
		return nil, fmt.Errorf("tbon: dialing parent %s: %w", parentAddr, err)
	}
	hello := lmonp.AppendUint32(nil, uint32(rank))
	hello = lmonp.AppendUint32(hello, 1)
	if err := lmonp.WriteFrame(conn, hello); err != nil {
		return nil, err
	}
	return &Leaf{conn: conn}, nil
}

// Recv blocks for the next downstream packet.
func (l *Leaf) Recv() (Packet, error) {
	raw, err := lmonp.RecvFrame(l.conn)
	if err != nil {
		return Packet{}, err
	}
	return decodePacket(raw)
}

// Send ships an upstream packet.
func (l *Leaf) Send(pkt Packet) error {
	return lmonp.WriteFrame(l.conn, encodePacket(pkt))
}

// Close closes the leaf's uplink.
func (l *Leaf) Close() { l.conn.Close() }

// LaunchNativeFlat reproduces MRNet's native 1-deep startup: the front end
// launches one leaf daemon per node through the rsh substrate
// (sequentially, the ad hoc mechanism of paper §2) and then accepts all of
// them directly. env, when not nil, returns what node i's daemon finds in
// its environment beside the parent address and rank (EnvParent/EnvRank) —
// the old mechanism for per-node tool configuration.
func LaunchNativeFlat(p *cluster.Proc, svc *rsh.Service, nodes []string, leafExe string, env func(i int, node string) map[string]string) (*FrontEnd, error) {
	fe, err := NewFrontEnd(p)
	if err != nil {
		return nil, err
	}
	envs := make([]map[string]string, len(nodes))
	for i, node := range nodes {
		envs[i] = map[string]string{}
		if env != nil {
			for k, v := range env(i, node) {
				envs[i][k] = v
			}
		}
		envs[i][EnvParent], envs[i][EnvRank] = fe.Addr(), fmt.Sprint(i)
	}
	if err := svc.Spawn(p, nodes, leafExe, nil, envs); err != nil {
		fe.Close()
		return nil, err
	}
	if err := fe.AcceptChildren(len(nodes)); err != nil {
		fe.Close()
		return nil, err
	}
	return fe, nil
}
