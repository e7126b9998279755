package coll

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"launchmon/internal/lmonp"
)

// A Combine folds one more contribution into an accumulator at a tree
// node. acc is nil for the node's first contribution; implementations
// must not retain next (it may alias a network buffer) and must be
// associative — interior nodes combine their subtree in tree order, so a
// non-associative filter would make the result depend on the fanout.
type Combine func(acc, next []byte) ([]byte, error)

// A FilterMaker builds a Combine from the argument part of a filter spec
// ("topk:8" → arg "8"; specs without an argument get "").
type FilterMaker func(arg string) (Combine, error)

var (
	filterMu sync.RWMutex
	filters  = map[string]FilterMaker{}
)

// RegisterFilter installs (or replaces) a named reduction filter. Tools
// register their own combiners — e.g. STAT's prefix-tree merge — next to
// the built-in concat/sum/topk.
func RegisterFilter(name string, mk FilterMaker) {
	filterMu.Lock()
	defer filterMu.Unlock()
	filters[name] = mk
}

// LookupFilter resolves a filter spec of the form "name" or "name:arg".
func LookupFilter(spec string) (Combine, error) {
	name, arg := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		name, arg = spec[:i], spec[i+1:]
	}
	filterMu.RLock()
	mk, ok := filters[name]
	filterMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("coll: unknown reduction filter %q", name)
	}
	return mk(arg)
}

func init() {
	RegisterFilter("concat", func(string) (Combine, error) {
		return func(acc, next []byte) ([]byte, error) {
			return append(acc, next...), nil
		}, nil
	})
	RegisterFilter("sum", func(string) (Combine, error) {
		return combineSum, nil
	})
	RegisterFilter("topk", func(arg string) (Combine, error) {
		k, err := strconv.Atoi(arg)
		if err != nil || k <= 0 {
			return nil, fmt.Errorf("coll: topk filter needs a positive count, got %q", arg)
		}
		return makeTopK(k), nil
	})
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

// makeTopK keeps at most k sample items from the union of all
// contributions, so the root-bound payload stays bounded regardless of
// the daemon count. Contributions are EncodeSample item lists.
func makeTopK(k int) Combine {
	return func(acc, next []byte) ([]byte, error) {
		items, err := DecodeSample(acc)
		if err != nil {
			return nil, err
		}
		more, err := DecodeSample(next)
		if err != nil {
			return nil, err
		}
		for _, it := range more {
			if len(items) >= k {
				break
			}
			items = append(items, append([]byte(nil), it...))
		}
		return EncodeSample(items), nil
	}
}

// EncodeSample renders a sample item list for the topk filter.
func EncodeSample(items [][]byte) []byte {
	b := lmonp.AppendUint32(make([]byte, 0, 4), uint32(len(items)))
	for _, it := range items {
		b = lmonp.AppendBytes(b, it)
	}
	return b
}

// DecodeSample parses a sample item list (nil decodes to no items; the
// items alias b).
func DecodeSample(b []byte) ([][]byte, error) {
	if b == nil {
		return nil, nil
	}
	rd := lmonp.NewReader(b)
	n := rd.Count(4)
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, rd.Bytes())
	}
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("coll: sample list: %w", err)
	}
	return out, nil
}
