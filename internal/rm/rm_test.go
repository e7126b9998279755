package rm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/lmonp"
	"launchmon/internal/proctab"
	"launchmon/internal/vtime"
)

// withLauncher runs fn in a simulated goroutine holding a tracer on a
// passive stand-in for the job launcher, after publish has set its symbols.
func withLauncher(t *testing.T, publish func(p *cluster.Proc), fn func(tr *cluster.Tracer)) {
	t.Helper()
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim.Go("engine", func() {
		p, err := cl.FrontEnd().SpawnProc(cluster.Spec{Exe: "srun", Passive: true})
		if err != nil {
			t.Error(err)
			return
		}
		publish(p)
		tr, err := p.Attach()
		if err != nil {
			t.Error(err)
			return
		}
		fn(tr)
		tr.Detach()
		p.Kill()
	})
	sim.Run()
}

func synthTable(n int) proctab.Table {
	tab := make(proctab.Table, n)
	for i := range tab {
		tab[i] = proctab.ProcDesc{Host: fmt.Sprintf("node%05d", i/8), Exe: "app", Pid: 1000 + i%8, Rank: i}
	}
	return tab
}

func TestPublishProctabRoundTrip(t *testing.T) {
	// 0 and 1 entries publish one chunk; 20000 entries on 2500 hosts
	// encode to well over one proctabChunkBytes.
	for _, n := range []int{0, 1, 20000} {
		tab := synthTable(n)
		withLauncher(t, func(p *cluster.Proc) { PublishProctab(p, tab) }, func(tr *cluster.Tracer) {
			var chunks, entries int
			err := ReadProctabChunks(tr, func(chunk []byte, i, total int) error {
				if i != chunks {
					t.Errorf("n=%d: chunk index %d delivered at position %d", n, i, chunks)
				}
				if len(chunk) > proctabChunkBytes {
					t.Errorf("n=%d: chunk %d is %d bytes, bound %d", n, i, len(chunk), proctabChunkBytes)
				}
				sub, err := proctab.Decode(chunk)
				chunks, entries = chunks+1, entries+len(sub)
				if chunks == total && entries != n {
					t.Errorf("n=%d: %d chunks carried %d entries", n, total, entries)
				}
				return err
			})
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if multi := n == 20000; (chunks > 1) != multi || chunks == 0 {
				t.Errorf("n=%d: published as %d chunks", n, chunks)
			}
			if size, err := tr.ReadSymbol(symProctabLen); err != nil || size != n {
				t.Errorf("n=%d: %s = %v, %v", n, symProctabLen, size, err)
			}
			got, err := ProctabFromLauncher(tr)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if len(got) != n || (n > 0 && !reflect.DeepEqual(got, tab)) {
				t.Errorf("n=%d: ProctabFromLauncher returned %d entries, not the published table", n, len(got))
			}
		})
	}
}

func TestWrongTypedProctabSymbolsAreErrors(t *testing.T) {
	for name, publish := range map[string]func(p *cluster.Proc){
		symProctabChunks: func(p *cluster.Proc) {
			p.SetSymbol(symProctabChunks, cluster.Symbol{Value: "2", Size: 4})
		},
		symProctabChunk(1): func(p *cluster.Proc) {
			PublishProctab(p, synthTable(20000))
			p.SetSymbol(symProctabChunk(1), cluster.Symbol{Value: 7, Size: 4})
		},
	} {
		withLauncher(t, publish, func(tr *cluster.Tracer) {
			_, err := ProctabFromLauncher(tr)
			if err == nil || !strings.Contains(err.Error(), name+" symbol has unexpected type") {
				t.Errorf("%s of the wrong type: %v", name, err)
			}
		})
	}
	// A chunk count that promises more chunks than were published fails on
	// the missing symbol rather than returning a short table.
	withLauncher(t, func(p *cluster.Proc) {
		PublishProctab(p, synthTable(8))
		p.SetSymbol(symProctabChunks, cluster.Symbol{Value: 2, Size: 4})
	}, func(tr *cluster.Tracer) {
		if _, err := ProctabFromLauncher(tr); err == nil {
			t.Error("short publication accepted")
		}
	})
	// A launcher that published nothing has no table to read.
	withLauncher(t, func(*cluster.Proc) {}, func(tr *cluster.Tracer) {
		if _, err := ProctabFromLauncher(tr); err == nil {
			t.Error("read a table from a launcher that published none")
		}
	})
}

// TestDaemonSpecBytesAreAFunctionOfTheSpec: the record every launch path
// carries goes out in key order — the same bytes every time, whatever
// order the map ranges in — and reads back as the spec.
func TestDaemonSpecBytesAreAFunctionOfTheSpec(t *testing.T) {
	spec := DaemonSpec{Exe: "tool_be", Args: []string{"-v", ""}, Env: map[string]string{}}
	want := lmonp.AppendString(nil, spec.Exe)
	want = lmonp.AppendStringList(want, spec.Args)
	want = lmonp.AppendUint32(want, 16)
	for i := 0; i < 16; i++ {
		k, v := fmt.Sprintf("LMON_K%02d", i), fmt.Sprint(i*i)
		spec.Env[k] = v
		want = lmonp.AppendString(lmonp.AppendString(want, k), v)
	}
	for i := 0; i < 100; i++ {
		if got := AppendDaemonSpec(nil, spec); !bytes.Equal(got, want) {
			t.Fatalf("encoding %d: env not in key order:\n got %q\nwant %q", i, got, want)
		}
	}
	rd := lmonp.NewReader(want)
	if got := ReadDaemonSpec(rd); rd.Err() != nil || rd.Remaining() != 0 || !reflect.DeepEqual(got, spec) {
		t.Fatalf("read back %+v (%v, %d bytes left), want %+v", got, rd.Err(), rd.Remaining(), spec)
	}
}

// TestAllocatorIsFirstFit sends the allocation service a random sequence of
// requests, with and without exclusions and some it cannot serve, and holds
// every answer to a first-fit scan from node 0 kept here: starting the scan
// at the first free node must pick the same nodes, and an excluded node
// stays free for a later request.
func TestAllocatorIsFirstFit(t *testing.T) {
	const nodes = 40
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Install(cl, Profile{Allocator: "allocator", AllocPort: 7000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	free := make([]bool, nodes)
	for i := range free {
		free[i] = true
	}
	reference := func(want int, exclude []string) ([]string, bool) {
		var picked []string
		var at []int
		for i := 0; i < nodes && len(picked) < want; i++ {
			name := cl.Node(i).Name()
			if free[i] && !slices.Contains(exclude, name) {
				picked, at = append(picked, name), append(at, i)
			}
		}
		if len(picked) < want {
			return nil, false
		}
		for _, i := range at {
			free[i] = false
		}
		return picked, true
	}
	rng := rand.New(rand.NewSource(1))
	sim.Go("client", func() {
		sim.Sleep(time.Millisecond) // the allocator is listening
		for req := 0; req < 40; req++ {
			want := rng.Intn(5)
			if req%10 == 9 {
				want = nodes // more than is left
			}
			// Exclusions near the first free node, where a scan meets them.
			lo := slices.Index(free, true)
			var exclude []string
			for k := rng.Intn(4); k > 0 && lo >= 0; k-- {
				exclude = append(exclude, cl.Node(min(lo+rng.Intn(6), nodes-1)).Name())
			}
			ref, ok := reference(want, exclude)
			got, err := s.allocate(cl.FrontEnd().Host(), want, exclude)
			if (err == nil) != ok || !slices.Equal(got, ref) {
				t.Errorf("request %d (%d nodes, excluding %v): got %v, %v; first fit picks %v", req, want, exclude, got, err, ref)
			}
		}
	})
	sim.Run()
}
