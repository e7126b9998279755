package slurm

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"launchmon/internal/iccl"
	"launchmon/internal/lmonp"
	"launchmon/internal/proctab"
	"launchmon/internal/rm"
)

// referenceMerge is a slurmd's launch result as it was built before the
// reply was merged as bytes: each child's table decoded and appended behind
// the local tasks, the whole encoded again.
func referenceMerge(local proctab.Table, children [][]byte) ([]byte, error) {
	merged := append(proctab.Table(nil), local...)
	for _, enc := range children {
		sub, err := proctab.Decode(enc)
		if err != nil {
			return nil, err
		}
		merged = append(merged, sub...)
	}
	return merged.Encode(), nil
}

// childReply wraps an encoded table as the reply a child slurmd sends.
func childReply(enc []byte) []byte {
	return lmonp.AppendBytes(lmonp.AppendString(nil, ""), enc)
}

// doneLaunch is a launch whose local tasks and children are done: the
// given tasks, and children that answered with the given replies.
func doneLaunch(local proctab.Table, replies [][]byte) *treeCall {
	st := &treeCall{op: opLaunch, local: localChunk(local)}
	for _, rep := range replies {
		st.kids = append(st.kids, kidCall{rep: rep})
	}
	return st
}

// mergeReplies runs the reply half of a launch — local tasks plus the
// given child replies — and returns the table bytes of the reply it sends.
func mergeReplies(t testing.TB, local proctab.Table, replies [][]byte) ([]byte, error) {
	t.Helper()
	sent := doneLaunch(local, replies).result()
	res, err := rm.OpenReply(sent[4:])
	if err != nil {
		return nil, err
	}
	rd := lmonp.NewReader(res)
	enc := rd.Bytes()
	if rd.Err() != nil || rd.Remaining() != 0 {
		t.Fatalf("launch reply does not end with its table: %v, %d bytes left", rd.Err(), rd.Remaining())
	}
	return enc, nil
}

// localChunk holds tasks the way a slurmd collects its own.
func localChunk(tasks proctab.Table) proctab.Chunk {
	var c proctab.Chunk
	for _, d := range tasks {
		c.Append(d.Host, d.Exe, uint32(d.Pid), uint32(d.Rank))
	}
	return c
}

func nodeTasks(node, tpn int) proctab.Table {
	t := make(proctab.Table, tpn)
	for i := range t {
		t[i] = proctab.ProcDesc{Host: fmt.Sprintf("node%d", node), Exe: "app", Pid: 2 + i, Rank: node*tpn + i}
	}
	return t
}

// TestLaunchMergeMatchesReference: what a slurmd answers from its own
// tasks and its children's replies is, byte for byte, what decoding them
// all into one table and encoding it gave — also when a child's pool holds
// strings no entry uses, or one string twice, or when a child runs the
// executable under the name of a host.
func TestLaunchMergeMatchesReference(t *testing.T) {
	hostile := lmonp.AppendStringList(nil, []string{"unused", "node9", "app", "node9", "node0"})
	hostile = lmonp.AppendUint32(hostile, 3)
	for _, e := range [][4]uint32{{3, 2, 7, 90}, {1, 2, 8, 91}, {4, 4, 9, 92}} {
		for _, v := range e {
			hostile = lmonp.AppendUint32(hostile, v)
		}
	}
	for _, tc := range []struct {
		name     string
		local    proctab.Table
		children [][]byte
	}{
		{"leaf", nodeTasks(5, 4), nil},
		{"no local tasks, no children", nil, nil},
		{"two subtrees", nodeTasks(0, 3), [][]byte{
			append(nodeTasks(1, 3), nodeTasks(3, 3)...).Encode(), nodeTasks(2, 3).Encode()}},
		{"hostile pool", nodeTasks(0, 2), [][]byte{nodeTasks(1, 2).Encode(), hostile, proctab.Table(nil).Encode()}},
	} {
		want, err := referenceMerge(tc.local, tc.children)
		if err != nil {
			t.Fatal(err)
		}
		var replies [][]byte
		for _, enc := range tc.children {
			replies = append(replies, childReply(enc))
		}
		got, err := mergeReplies(t, tc.local, replies)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: merged reply differs from decode + append + encode\n got  %x\n want %x", tc.name, got, want)
		}
	}
}

// TestThreeLevelLaunchReplyMatchesReferenceMerge drives a real launch down
// a three-level slurmd tree (7 nodes, fanout 2) and holds the root's reply
// to the reference merge applied level by level from the leaves up: same
// bytes, so same entry order (a node's tasks, then its subtrees in child
// order), same pool order, same length.
func TestThreeLevelLaunchReplyMatchesReferenceMerge(t *testing.T) {
	const n, fanout, tpn = 7, 2, 3
	sim, cl, _ := testRig(t, n, Config{Fanout: fanout})
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = cl.Node(i).Name()
	}
	sim.Go("test", func() {
		sim.Sleep(time.Millisecond)
		rd, err := treeRequest(cl.FrontEnd().Host(), nodes, encodeLaunch(7, tpn, "app", nodes))
		if err != nil {
			t.Error(err)
			return
		}
		got := rd.Bytes()
		if rd.Err() != nil {
			t.Error(rd.Err())
			return
		}
		tab, err := proctab.Decode(got)
		if err != nil {
			t.Error(err)
			return
		}
		if err := tab.Validate(); err != nil || len(tab) != n*tpn {
			t.Errorf("reply holds %d entries, Validate: %v", len(tab), err)
		}
		local := make([]proctab.Table, n)
		for _, d := range tab {
			var k int
			fmt.Sscanf(d.Host, "node%d", &k)
			if p, ok := cl.Node(k).Proc(d.Pid); !ok || p.Exe() != "app" || d.Rank/tpn != k {
				t.Errorf("entry %+v names no task of node %d", d, k)
			}
			local[k] = append(local[k], d)
		}
		var reference func(k int) []byte
		reference = func(k int) []byte {
			var subs [][]byte
			for _, c := range iccl.Children(k, n, fanout) {
				subs = append(subs, reference(c))
			}
			enc, err := referenceMerge(local[k], subs)
			if err != nil {
				t.Error(err)
			}
			return enc
		}
		if want := reference(0); !bytes.Equal(got, want) {
			t.Errorf("the root's reply differs from the reference merge\n got  %x\n want %x", got, want)
		}
	})
	sim.Run()
}

// TestLaunchMergeAllocatesLittleBeyondTheReply is the allocation guard of
// the byte merge: an interior slurmd answering for 32 children of 256
// tasks each allocates at most 24 bytes per entry of its reply — 16 of
// them the reply itself, written once at its size; the rest is the scanned
// pools and the index map. (Decoding every child into a Table, appending
// and encoding again cost several hundred.)
func TestLaunchMergeAllocatesLittleBeyondTheReply(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the test's behalf")
	}
	const kids, tpn = 32, 256
	local := nodeTasks(0, tpn)
	var replies [][]byte
	for k := 1; k <= kids; k++ {
		replies = append(replies, childReply(nodeTasks(k, tpn).Encode()))
	}
	if _, err := mergeReplies(t, local, replies); err != nil {
		t.Fatal(err)
	}
	st := doneLaunch(local, replies)
	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		st.result()
	}
	runtime.ReadMemStats(&m1)
	per := float64(m1.TotalAlloc-m0.TotalAlloc) / runs / ((kids + 1) * tpn)
	t.Logf("%.1f B allocated per merged entry", per)
	if per > 24 {
		t.Errorf("merging %d children of %d tasks allocates %.1f B per entry, want at most 24 (16 is the reply)", kids, tpn, per)
	}
}
