package proctab

import (
	"fmt"
	"reflect"
	"testing"

	"launchmon/internal/lmonp"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

func synthTable(n int) Table {
	t := make(Table, 0, n)
	for i := 0; i < n; i++ {
		t = append(t, ProcDesc{
			Host: fmt.Sprintf("node%d", i/8),
			Exe:  "app",
			Pid:  1000 + i,
			Rank: i,
		})
	}
	return t
}

func TestEncodeChunksReassembles(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 500} {
		for _, maxBytes := range []int{0, 64, 256, 1 << 20} {
			tab := synthTable(n)
			chunks := tab.EncodeChunks(maxBytes)
			if len(chunks) == 0 {
				t.Fatalf("n=%d max=%d: no chunks", n, maxBytes)
			}
			var asm Assembler
			for _, c := range chunks {
				if err := asm.Add(c); err != nil {
					t.Fatalf("n=%d max=%d: %v", n, maxBytes, err)
				}
			}
			got, err := asm.Finish(n)
			if err != nil {
				t.Fatalf("n=%d max=%d: finish: %v", n, maxBytes, err)
			}
			if n == 0 {
				if len(got) != 0 {
					t.Fatalf("n=0: got %d entries", len(got))
				}
				continue
			}
			if !reflect.DeepEqual(got, tab) {
				t.Fatalf("n=%d max=%d: reassembly mismatch", n, maxBytes)
			}
		}
	}
}

func TestEncodeChunksBoundedAtMillionTasks(t *testing.T) {
	if testing.Short() {
		t.Skip("million-task table in -short mode")
	}
	const tasks = 1 << 20 // 1M tasks, 8 per node
	const maxBytes = DefaultChunkBytes
	tab := synthTable(tasks)
	whole := len(tab.Encode())
	chunks := tab.EncodeChunks(maxBytes)
	if len(chunks) < whole/maxBytes {
		t.Fatalf("%d chunks cannot cover %d encoded bytes at %d bytes/chunk", len(chunks), whole, maxBytes)
	}
	total := 0
	for i, c := range chunks {
		if len(c) > maxBytes {
			t.Fatalf("chunk %d is %d bytes, exceeds configured %d", i, len(c), maxBytes)
		}
		total += len(c)
	}
	// Chunking costs only duplicated pool strings, not entry blowup.
	if total > whole+whole/4 {
		t.Fatalf("chunked total %d far above monolithic %d", total, whole)
	}
	var asm Assembler
	for _, c := range chunks {
		if err := asm.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := asm.Finish(tasks); err != nil {
		t.Fatal(err)
	}
}

func TestAssemblerFinishRejectsMismatch(t *testing.T) {
	tab := synthTable(16)
	var asm Assembler
	for _, c := range tab.EncodeChunks(64) {
		if err := asm.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := asm.Finish(15); err == nil {
		t.Error("short total accepted")
	}
	var dup Assembler
	chunk := synthTable(4).Encode()
	if err := dup.Add(chunk); err != nil {
		t.Fatal(err)
	}
	if err := dup.Add(chunk); err != nil {
		t.Fatal(err)
	}
	// Duplicate ranks must be caught by Validate at Finish.
	if _, err := dup.Finish(8); err == nil {
		t.Error("duplicate-rank reassembly accepted")
	}
}

func TestSendRecvStream(t *testing.T) {
	sim := vtime.New()
	net := simnet.New(sim, simnet.Options{})
	l, err := net.Host("a").Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	tab := synthTable(100)
	var got Table
	var recvErr error
	sim.Go("recv", func() {
		raw, err := l.Accept()
		if err != nil {
			recvErr = err
			return
		}
		got, recvErr = RecvStream(lmonp.NewConn(raw), lmonp.ClassFEBE)
	})
	sim.Go("send", func() {
		raw, err := net.Host("b").Dial(simnet.Addr{Host: "a", Port: l.Addr().Port})
		if err != nil {
			t.Error(err)
			return
		}
		if err := SendStream(lmonp.NewConn(raw), lmonp.ClassFEBE, tab, 256); err != nil {
			t.Error(err)
		}
	})
	sim.Run()
	if recvErr != nil {
		t.Fatal(recvErr)
	}
	if !reflect.DeepEqual(got, tab) {
		t.Fatal("stream roundtrip mismatch")
	}
}
