package coll

import (
	"encoding/binary"
	"fmt"
)

// A Combine folds one more contribution into an accumulator at a tree
// node. acc is nil for the node's first contribution; implementations
// must not retain next (it may alias a network buffer) and must be
// associative — interior nodes combine their subtree in tree order, so a
// non-associative filter would make the result depend on the fanout.
type Combine func(acc, next []byte) ([]byte, error)

// LookupFilter resolves a reduction filter by name. The plane keeps two:
// "sum", the one programs reduce with, and "concat", the one
// order-sensitive filter, which shows the tree order interior ranks
// combine in.
func LookupFilter(name string) (Combine, error) {
	switch name {
	case "sum":
		return combineSum, nil
	case "concat":
		return func(acc, next []byte) ([]byte, error) { return append(acc, next...), nil }, nil
	}
	return nil, fmt.Errorf("coll: unknown reduction filter %q", name)
}

// combineSum adds big-endian uint64 vectors element-wise (with wraparound,
// like C counters). Contributions must agree on vector length.
func combineSum(acc, next []byte) ([]byte, error) {
	if len(next)%8 != 0 {
		return nil, fmt.Errorf("coll: sum contribution of %d bytes is not a uint64 vector", len(next))
	}
	if acc == nil {
		return append([]byte(nil), next...), nil
	}
	if len(acc) != len(next) {
		return nil, fmt.Errorf("coll: sum vectors disagree: %d vs %d bytes", len(acc), len(next))
	}
	for i := 0; i < len(acc); i += 8 {
		v := binary.BigEndian.Uint64(acc[i:]) + binary.BigEndian.Uint64(next[i:])
		binary.BigEndian.PutUint64(acc[i:], v)
	}
	return acc, nil
}
