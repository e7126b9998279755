package stat

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestAddStackAndClasses(t *testing.T) {
	tr := newTree()
	tr.addStack(0, []string{"main", "a", "x"})
	tr.addStack(1, []string{"main", "a", "x"})
	tr.addStack(2, []string{"main", "b"})
	classes := tr.EquivalenceClasses()
	if len(classes) != 2 {
		t.Fatalf("classes = %d, want 2", len(classes))
	}
	if classes[0].Path != "main>a>x" || len(classes[0].Ranks) != 2 {
		t.Fatalf("largest class = %+v", classes[0])
	}
	if classes[1].Path != "main>b" || classes[1].representative() != 2 {
		t.Fatalf("second class = %+v", classes[1])
	}
}

func TestMergeEquivalentToCombinedInsert(t *testing.T) {
	a, b, both := newTree(), newTree(), newTree()
	stacks := map[int][]string{
		0: {"main", "compute"},
		1: {"main", "compute"},
		2: {"main", "io", "write"},
		3: {"main", "io", "read"},
	}
	for r, s := range stacks {
		both.addStack(r, s)
		if r%2 == 0 {
			a.addStack(r, s)
		} else {
			b.addStack(r, s)
		}
	}
	a.merge(b)
	if !reflect.DeepEqual(a.EquivalenceClasses(), both.EquivalenceClasses()) {
		t.Fatalf("merged classes differ:\n%v\n%v", a.EquivalenceClasses(), both.EquivalenceClasses())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := newTree()
	for r := 0; r < 20; r++ {
		tr.addStack(r, stackFor(r))
	}
	out, err := decodeTree(tr.encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.EquivalenceClasses(), out.EquivalenceClasses()) {
		t.Fatal("roundtrip changed equivalence classes")
	}
	if out.Tasks() != 20 {
		t.Fatalf("tasks = %d", out.Tasks())
	}
}

func TestDecodeCorrupt(t *testing.T) {
	tr := newTree()
	tr.addStack(0, []string{"main"})
	enc := tr.encode()
	for _, cut := range []int{1, len(enc) / 2, len(enc) - 1} {
		if _, err := decodeTree(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestStackForDeterministicClasses(t *testing.T) {
	// The synthetic profile has exactly three behaviours.
	tr := newTree()
	for r := 0; r < 1000; r++ {
		tr.addStack(r, stackFor(r))
	}
	classes := tr.EquivalenceClasses()
	if len(classes) != 3 {
		t.Fatalf("synthetic profile yields %d classes, want 3", len(classes))
	}
	total := 0
	for _, c := range classes {
		total += len(c.Ranks)
	}
	if total != 1000 {
		t.Fatalf("classes cover %d ranks, want 1000", total)
	}
	// The MPI-wait class dominates (the STAT motivation).
	if classes[0].Path != "main>solver_loop>exchange_halo>mpi_waitall>poll_cq" {
		t.Fatalf("dominant class = %s", classes[0].Path)
	}
}

// Property: merging any partition of stacks equals inserting them all into
// one tree (associativity of the TBŌN filter).
func TestPropertyMergeAssociative(t *testing.T) {
	f := func(split []bool) bool {
		if len(split) == 0 {
			return true
		}
		if len(split) > 200 {
			split = split[:200]
		}
		a, b, both := newTree(), newTree(), newTree()
		for r, left := range split {
			s := stackFor(r)
			both.addStack(r, s)
			if left {
				a.addStack(r, s)
			} else {
				b.addStack(r, s)
			}
		}
		merged := mergeFilter(mergeFilter(nil, a.encode()), b.encode())
		tr, err := decodeTree(merged)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(tr.EquivalenceClasses(), both.EquivalenceClasses())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: rank insertion keeps Ranks sorted and deduplicated.
func TestPropertyInsertRank(t *testing.T) {
	f := func(rs []uint8) bool {
		var ranks []int
		seen := map[int]bool{}
		for _, r := range rs {
			ranks = insertRank(ranks, int(r))
			seen[int(r)] = true
		}
		if len(ranks) != len(seen) {
			return false
		}
		for i := 1; i < len(ranks); i++ {
			if ranks[i] <= ranks[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
