// Package tbon implements an MRNet-like Tree-Based Overlay Network
// (TBŌN): a front end, optional internal communication-process layer, and
// leaf back-ends, carrying multicast requests downstream and
// filter-reduced responses upstream (Roth, Arnold & Miller, SC'03 — the
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
	"sync"
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

// Packet is one TBŌN message. Downstream packets carry the stream's filter
// name so internal nodes know how to merge the reply wave.
type Packet struct {
	Stream uint32
	Tag    uint32
	Filter string // merge filter for the response wave ("" = concat)
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
	var p Packet
	var err error
	if p.Stream, err = rd.Uint32(); err != nil {
		return p, err
	}
	if p.Tag, err = rd.Uint32(); err != nil {
		return p, err
	}
	if p.Filter, err = rd.String(); err != nil {
		return p, err
	}
	data, err := rd.Bytes()
	if err != nil {
		return p, err
	}
	p.Data = append([]byte(nil), data...)
	return p, nil
}

// Filter merges two upstream payloads; it must be associative. A nil
// accumulator (first contribution) is passed as a==nil.
type Filter func(a, b []byte) []byte

var (
	filterMu  sync.Mutex
	filterReg = map[string]Filter{}
)

// RegisterFilter installs a named merge filter; internal nodes and the
// front end resolve filters by the name carried in downstream packets.
func RegisterFilter(name string, f Filter) {
	filterMu.Lock()
	defer filterMu.Unlock()
	filterReg[name] = f
}

func lookupFilter(name string) Filter {
	filterMu.Lock()
	defer filterMu.Unlock()
	if f, ok := filterReg[name]; ok {
		return f
	}
	// Default: concatenation.
	return func(a, b []byte) []byte { return append(a, b...) }
}

func init() {
	RegisterFilter("concat", func(a, b []byte) []byte { return append(a, b...) })
}

// Config tunes the overlay cost model.
type Config struct {
	// PerChildAcceptCost is the root/internal-node CPU cost to accept and
	// set up one child connection (thread spin-up, fd bookkeeping;
	// default 4ms — MRNet's dominant serial term at the root).
	PerChildAcceptCost time.Duration
	// HandshakeCost is the per-child protocol handshake processing
	// (default 3ms; ≈0.77 s at 256 children, the paper's measured MRNet
	// handshake share).
	HandshakeCost time.Duration
}

func (c Config) withDefaults() Config {
	if c.PerChildAcceptCost == 0 {
		c.PerChildAcceptCost = 4 * time.Millisecond
	}
	if c.HandshakeCost == 0 {
		c.HandshakeCost = 3 * time.Millisecond
	}
	return c
}

// child is one downstream connection at the front end or a comm node.
type child struct {
	conn   *simnet.Conn
	rank   int
	leaves int // leaf back-ends in this child's subtree
}

// FrontEnd is the overlay root, owned by the tool's front-end process.
type FrontEnd struct {
	p        *cluster.Proc
	cfg      Config
	listener *simnet.Listener
	children []child
	leaves   int
}

// NewFrontEnd opens the overlay root on an ephemeral port.
func NewFrontEnd(p *cluster.Proc, cfg Config) (*FrontEnd, error) {
	l, err := p.Host().Listen(0)
	if err != nil {
		return nil, err
	}
	return &FrontEnd{p: p, cfg: cfg.withDefaults(), listener: l}, nil
}

// Addr returns the root's listen address (host:port) for daemons to dial.
func (fe *FrontEnd) Addr() string { return fe.listener.Addr().String() }

// acceptChildren accepts exactly n children on l for the process p,
// charging it the per-child accept and handshake costs, and returns them
// with the leaf total of their subtrees. On an error the children accepted
// so far are still returned, for the caller to close.
func acceptChildren(p *cluster.Proc, cfg Config, l *simnet.Listener, n int) ([]child, int, error) {
	var kids []child
	leaves := 0
	for i := 0; i < n; i++ {
		conn, err := l.Accept()
		if err != nil {
			return kids, leaves, err
		}
		p.Compute(cfg.PerChildAcceptCost)
		hello, err := lmonp.ReadFrame(conn)
		if err != nil {
			conn.Close()
			return kids, leaves, err
		}
		p.Compute(cfg.HandshakeCost)
		rd := lmonp.NewReader(hello)
		rank, _ := rd.Uint32()
		lv, err := rd.Uint32()
		if err != nil {
			conn.Close()
			return kids, leaves, fmt.Errorf("tbon: bad hello: %w", err)
		}
		kids = append(kids, child{conn: conn, rank: int(rank), leaves: int(lv)})
		leaves += int(lv)
	}
	return kids, leaves, nil
}

// AcceptChildren accepts exactly n direct children, charging the per-child
// accept and handshake costs — the connection-establishment phase whose
// serial root cost dominates MRNet's 1-deep startup.
func (fe *FrontEnd) AcceptChildren(n int) error {
	kids, leaves, err := acceptChildren(fe.p, fe.cfg, fe.listener, n)
	fe.children = append(fe.children, kids...)
	fe.leaves += leaves
	return err
}

// Leaves returns the number of leaf back-ends connected (directly or
// through comm nodes).
func (fe *FrontEnd) Leaves() int { return fe.leaves }

// Multicast sends pkt down the whole tree.
func (fe *FrontEnd) Multicast(pkt Packet) error {
	raw := encodePacket(pkt)
	for _, c := range fe.children {
		if err := lmonp.WriteFrame(c.conn, raw); err != nil {
			return err
		}
	}
	return nil
}

// gatherMerged reads one (possibly pre-merged) response per child and
// merges them with the named filter on the process p, returning the
// reduced payload.
func gatherMerged(p *cluster.Proc, cfg Config, children []child, filter string) ([]byte, error) {
	f := lookupFilter(filter)
	var acc []byte
	for _, c := range children {
		raw, err := lmonp.ReadFrame(c.conn)
		if err != nil {
			return nil, err
		}
		pkt, err := decodePacket(raw)
		if err != nil {
			return nil, err
		}
		p.Compute(cfg.HandshakeCost / 3) // per-packet processing
		acc = f(acc, pkt.Data)
	}
	return acc, nil
}

// GatherMerged reads one (possibly pre-merged) response per direct child
// and merges them with the named filter, returning the reduced payload.
func (fe *FrontEnd) GatherMerged(filter string) ([]byte, error) {
	return gatherMerged(fe.p, fe.cfg, fe.children, filter)
}

// Request multicasts a request and returns the filter-merged responses —
// the round-trip STAT uses per stack-sample wave.
func (fe *FrontEnd) Request(pkt Packet) ([]byte, error) {
	if err := fe.Multicast(pkt); err != nil {
		return nil, err
	}
	return fe.GatherMerged(pkt.Filter)
}

// Close shuts the overlay down (children observe EOF).
func (fe *FrontEnd) Close() {
	for _, c := range fe.children {
		c.conn.Close()
	}
	fe.listener.Close()
}

// Leaf is a back-end endpoint of the overlay.
type Leaf struct {
	conn *simnet.Conn
	rank int
}

// ErrNoParent reports a missing/invalid parent address.
var ErrNoParent = errors.New("tbon: no parent address")

// dialParent dials a parent's listen address, retrying while the parent is
// still coming up.
func dialParent(p *cluster.Proc, parentAddr string) (*simnet.Conn, error) {
	addr, err := simnet.ParseAddr(parentAddr)
	if err != nil {
		return nil, fmt.Errorf("%w: %q", ErrNoParent, parentAddr)
	}
	var conn *simnet.Conn
	for attempt := 0; attempt < 2000; attempt++ {
		conn, err = p.Host().Dial(addr)
		if err == nil {
			return conn, nil
		}
		p.Sim().Sleep(5 * time.Millisecond)
	}
	return nil, fmt.Errorf("tbon: dialing parent %s: %w", parentAddr, err)
}

// ConnectLeaf dials the parent and sends the hello. rank identifies the
// leaf.
func ConnectLeaf(p *cluster.Proc, parentAddr string, rank int) (*Leaf, error) {
	conn, err := dialParent(p, parentAddr)
	if err != nil {
		return nil, err
	}
	hello := lmonp.AppendUint32(nil, uint32(rank))
	hello = lmonp.AppendUint32(hello, 1)
	if err := lmonp.WriteFrame(conn, hello); err != nil {
		return nil, err
	}
	return &Leaf{conn: conn, rank: rank}, nil
}

// Rank returns the leaf's rank.
func (l *Leaf) Rank() int { return l.rank }

// Recv blocks for the next downstream packet.
func (l *Leaf) Recv() (Packet, error) {
	raw, err := lmonp.ReadFrame(l.conn)
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
// them directly. baseEnv is merged into every daemon's environment; the
// parent address and rank ride EnvParent/EnvRank.
func LaunchNativeFlat(p *cluster.Proc, svc *rsh.Service, nodes []string, leafExe string, baseEnv map[string]string, cfg Config) (*FrontEnd, error) {
	fe, err := NewFrontEnd(p, cfg)
	if err != nil {
		return nil, err
	}
	envs := make([]map[string]string, len(nodes))
	for i := range nodes {
		env := make(map[string]string, len(baseEnv)+2)
		for k, v := range baseEnv {
			env[k] = v
		}
		env[EnvParent] = fe.Addr()
		env[EnvRank] = fmt.Sprint(i)
		envs[i] = env
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
