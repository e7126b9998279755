package stat

import (
	"fmt"
	"sort"
	"strings"

	"launchmon/internal/lmonp"
)

// Tree is a call-graph prefix tree: stack traces from many tasks merged so
// that common prefixes share nodes and each node records which ranks
// reached it. Leaf membership defines the process equivalence classes
// STAT reports (tasks with identical full call paths behave alike and can
// be debugged through one representative).
type Tree struct {
	Frame    string           // function name ("" at the root)
	Ranks    []int            // ranks whose stacks pass through this node (sorted)
	Children map[string]*Tree // keyed by child frame name
}

// newTree returns an empty root.
func newTree() *Tree {
	return &Tree{Children: make(map[string]*Tree)}
}

// addStack inserts one task's stack trace (outermost frame first).
func (t *Tree) addStack(rank int, frames []string) {
	node := t
	node.Ranks = insertRank(node.Ranks, rank)
	for _, f := range frames {
		child, ok := node.Children[f]
		if !ok {
			child = &Tree{Frame: f, Children: make(map[string]*Tree)}
			node.Children[f] = child
		}
		child.Ranks = insertRank(child.Ranks, rank)
		node = child
	}
}

func insertRank(ranks []int, r int) []int {
	i := sort.SearchInts(ranks, r)
	if i < len(ranks) && ranks[i] == r {
		return ranks
	}
	ranks = append(ranks, 0)
	copy(ranks[i+1:], ranks[i:])
	ranks[i] = r
	return ranks
}

// merge folds other into t (associative, commutative up to rank order).
func (t *Tree) merge(other *Tree) {
	for _, r := range other.Ranks {
		t.Ranks = insertRank(t.Ranks, r)
	}
	for name, oc := range other.Children {
		tc, ok := t.Children[name]
		if !ok {
			t.Children[name] = oc
			continue
		}
		tc.merge(oc)
	}
}

// Tasks returns the number of distinct ranks in the tree.
func (t *Tree) Tasks() int { return len(t.Ranks) }

// EquivalenceClasses returns the rank sets of all maximal call paths
// (leaves), sorted by descending size then by path — STAT's process
// equivalence classes.
func (t *Tree) EquivalenceClasses() []Class {
	var out []Class
	var walk func(n *Tree, path []string)
	walk = func(n *Tree, path []string) {
		if len(n.Children) == 0 {
			if n.Frame != "" || len(path) > 0 {
				out = append(out, Class{Path: strings.Join(path, ">"), Ranks: append([]int(nil), n.Ranks...)})
			}
			return
		}
		names := make([]string, 0, len(n.Children))
		for name := range n.Children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			walk(n.Children[name], append(path, name))
		}
	}
	walk(t, nil)
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Ranks) != len(out[j].Ranks) {
			return len(out[i].Ranks) > len(out[j].Ranks)
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// Class is one process equivalence class: the tasks sharing a full call
// path.
type Class struct {
	Path  string
	Ranks []int
}

// representative returns the lowest rank of the class — the task a full
// debugger would attach to.
func (c Class) representative() int {
	if len(c.Ranks) == 0 {
		return -1
	}
	return c.Ranks[0]
}

// String renders the class compactly.
func (c Class) String() string {
	return fmt.Sprintf("%4d tasks  rep=%-5d  %s", len(c.Ranks), c.representative(), c.Path)
}

// encode renders the tree for TBŌN transport.
func (t *Tree) encode() []byte {
	var b []byte
	b = lmonp.AppendString(b, t.Frame)
	b = lmonp.AppendUint32(b, uint32(len(t.Ranks)))
	for _, r := range t.Ranks {
		b = lmonp.AppendUint32(b, uint32(r))
	}
	names := make([]string, 0, len(t.Children))
	for name := range t.Children {
		names = append(names, name)
	}
	sort.Strings(names)
	b = lmonp.AppendUint32(b, uint32(len(names)))
	for _, name := range names {
		b = lmonp.AppendBytes(b, t.Children[name].encode())
	}
	return b
}

// decodeTree parses an encoded tree.
func decodeTree(raw []byte) (*Tree, error) {
	t, err := readTree(lmonp.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("stat: decode tree: %w", err)
	}
	return t, nil
}

func readTree(rd *lmonp.Reader) (*Tree, error) {
	t := newTree()
	t.Frame = rd.String()
	for i, n := 0, rd.Count(4); i < n; i++ {
		t.Ranks = append(t.Ranks, int(rd.Uint32()))
	}
	// Each child travels as a length-prefixed encoded tree.
	for i, n := 0, rd.Count(4); i < n; i++ {
		child, err := readTree(lmonp.NewReader(rd.Bytes()))
		if err != nil {
			return nil, err
		}
		t.Children[child.Frame] = child
	}
	return t, rd.Err()
}
