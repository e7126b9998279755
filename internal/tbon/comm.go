package tbon

import (
	"fmt"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/lmonp"
	"launchmon/internal/simnet"
)

// CommNode is an internal communication process: it relays downstream
// multicasts to its children and merges the upstream response wave with
// the packet's filter before forwarding it — where a TBŌN earns its
// scalability (distributed reduction instead of a root hot spot).
type CommNode struct {
	p        *cluster.Proc
	cfg      Config
	rank     int
	expect   int
	parent   *simnet.Conn
	listener *simnet.Listener
	children []child
	leaves   int
}

// StartCommNodeDeferredHello dials the parent and opens the child-facing
// listener, but defers the upward hello until FinishHandshakeAndServe has
// accepted the whole subtree — so the root's AcceptChildren accounts for
// complete subtrees. The comm node's Addr is available (for distributing
// to its leaves) as soon as this returns.
func StartCommNodeDeferredHello(p *cluster.Proc, parentAddr string, rank, expectChildren int, cfg Config) (*CommNode, error) {
	cfg = cfg.withDefaults()
	l, err := p.Host().Listen(0)
	if err != nil {
		return nil, err
	}
	cn := &CommNode{p: p, cfg: cfg, rank: rank, expect: expectChildren, listener: l}

	addr, err := parseParent(parentAddr)
	if err != nil {
		return nil, err
	}
	var conn *simnet.Conn
	for attempt := 0; attempt < 2000; attempt++ {
		conn, err = p.Host().Dial(addr)
		if err == nil {
			break
		}
		p.Sim().Sleep(5 * time.Millisecond)
	}
	if err != nil {
		return nil, fmt.Errorf("tbon: comm node dialing parent: %w", err)
	}
	cn.parent = conn
	return cn, nil
}

// Addr returns the comm node's child-facing listen address.
func (cn *CommNode) Addr() string { return cn.listener.Addr().String() }

// FinishHandshakeAndServe accepts the expected children, sends the upward
// hello, and enters the relay loop.
func (cn *CommNode) FinishHandshakeAndServe() error {
	for i := 0; i < cn.expect; i++ {
		c, err := cn.listener.Accept()
		if err != nil {
			return err
		}
		cn.p.Compute(cn.cfg.PerChildAcceptCost)
		hello, err := lmonp.ReadFrame(c)
		if err != nil {
			return err
		}
		cn.p.Compute(cn.cfg.HandshakeCost)
		rd := lmonp.NewReader(hello)
		rk, _ := rd.Uint32()
		lv, err := rd.Uint32()
		if err != nil {
			return err
		}
		cn.children = append(cn.children, child{conn: c, rank: int(rk), leaves: int(lv)})
		cn.leaves += int(lv)
	}
	hello := lmonp.AppendUint32(nil, uint32(cn.rank))
	hello = lmonp.AppendUint32(hello, uint32(cn.leaves))
	if err := lmonp.WriteFrame(cn.parent, hello); err != nil {
		return err
	}
	return cn.Serve()
}

// Serve relays request/response waves until the parent closes the link:
// forward each downstream packet to all children, collect one response per
// child, merge with the packet's filter, and send the reduction upstream.
func (cn *CommNode) Serve() error {
	for {
		raw, err := lmonp.ReadFrame(cn.parent)
		if err != nil {
			cn.close()
			return nil // parent closed: normal shutdown
		}
		pkt, err := decodePacket(raw)
		if err != nil {
			cn.close()
			return err
		}
		for _, c := range cn.children {
			if err := lmonp.WriteFrame(c.conn, raw); err != nil {
				cn.close()
				return err
			}
		}
		f := lookupFilter(pkt.Filter)
		var acc []byte
		for _, c := range cn.children {
			resp, err := lmonp.ReadFrame(c.conn)
			if err != nil {
				cn.close()
				return err
			}
			rpkt, err := decodePacket(resp)
			if err != nil {
				cn.close()
				return err
			}
			cn.p.Compute(cn.cfg.HandshakeCost / 3)
			acc = f(acc, rpkt.Data)
		}
		up := pkt
		up.Data = acc
		if err := lmonp.WriteFrame(cn.parent, encodePacket(up)); err != nil {
			cn.close()
			return err
		}
	}
}

func (cn *CommNode) close() {
	for _, c := range cn.children {
		c.conn.Close()
	}
	cn.listener.Close()
	cn.parent.Close()
}
