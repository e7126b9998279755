package tbon

import (
	"launchmon/internal/cluster"
	"launchmon/internal/lmonp"
	"launchmon/internal/simnet"
)

// commNode is an internal communication process: it relays downstream
// multicasts to its children and merges the upstream response wave with
// the packet's filter before forwarding it — where a TBŌN earns its
// scalability (distributed reduction instead of a root hot spot).
type commNode struct {
	p        *cluster.Proc
	rank     int
	expect   int
	parent   *simnet.Conn
	listener *simnet.Listener
	children []child
	leaves   int
}

// startCommNodeDeferredHello dials the parent and opens the child-facing
// listener, but defers the upward hello until FinishHandshakeAndServe has
// accepted the whole subtree — so the root's AcceptChildren accounts for
// complete subtrees. The comm node's Addr is available (for distributing
// to its leaves) as soon as this returns.
func startCommNodeDeferredHello(p *cluster.Proc, parentAddr string, rank, expectChildren int) (*commNode, error) {
	l, err := p.Host().Listen(0)
	if err != nil {
		return nil, err
	}
	cn := &commNode{p: p, rank: rank, expect: expectChildren, listener: l}

	conn, err := dialParent(p, parentAddr)
	if err != nil {
		return nil, err
	}
	cn.parent = conn
	return cn, nil
}

// Addr returns the comm node's child-facing listen address.
func (cn *commNode) Addr() string { return cn.listener.Addr().String() }

// finishHandshakeAndServe accepts the expected children, sends the upward
// hello, and enters the relay loop.
func (cn *commNode) finishHandshakeAndServe() error {
	var err error
	cn.children, cn.leaves, err = acceptChildren(cn.p, cn.listener, cn.expect)
	if err != nil {
		return err
	}
	hello := lmonp.AppendUint32(nil, uint32(cn.rank))
	hello = lmonp.AppendUint32(hello, uint32(cn.leaves))
	if err := lmonp.WriteFrame(cn.parent, hello); err != nil {
		return err
	}
	return cn.serve()
}

// serve relays request/response waves until the parent closes the link:
// forward each downstream packet to all children, collect one response per
// child, merge with the packet's filter, and send the reduction upstream.
func (cn *commNode) serve() error {
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
		acc, err := gatherMerged(cn.p, cn.children, pkt.Filter)
		if err != nil {
			cn.close()
			return err
		}
		up := pkt
		up.Data = acc
		if err := lmonp.WriteFrame(cn.parent, encodePacket(up)); err != nil {
			cn.close()
			return err
		}
	}
}

func (cn *commNode) close() {
	for _, c := range cn.children {
		c.conn.Close()
	}
	cn.listener.Close()
	cn.parent.Close()
}
