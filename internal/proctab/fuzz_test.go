package proctab

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"launchmon/internal/lmonp"
)

// FuzzProctabDecode hardens the RPDTAB decoder against truncated and
// hostile inputs: it must never panic, never fabricate more entries than
// the input could physically encode, and everything it accepts must
// re-encode/re-decode to the same table.
func FuzzProctabDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(synthTable(0).Encode())
	f.Add(synthTable(3).Encode())
	f.Add(synthTable(64).Encode())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                                    // absurd pool count
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})                        // absurd entry count
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 'h', 0, 0, 0, 1, 0, 0, 0, 9, 9, 9}) // truncated entry

	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := Decode(data)
		if err != nil {
			return
		}
		// Each entry consumes 16 bytes of input past the pool.
		if len(tab)*16 > len(data) {
			t.Fatalf("%d entries decoded from %d bytes", len(tab), len(data))
		}
		for i, d := range tab {
			if d.Pid < 0 || d.Rank < 0 {
				t.Fatalf("entry %d decoded negative identity: %+v", i, d)
			}
		}
		back, err := Decode(tab.Encode())
		if err != nil {
			t.Fatalf("re-decode of accepted table failed: %v", err)
		}
		if len(tab) == 0 {
			return
		}
		if !reflect.DeepEqual(back, tab) {
			t.Fatal("re-encode roundtrip mismatch")
		}
	})
}

// FuzzWireMatchesTable holds the wire-level codec to the materializing one
// it replaced (referenceDecode / referenceEncode / referenceChunks) on
// arbitrary input: Scan accepts exactly what the old Decode accepted and
// fails with the same words; what it accepted materializes to the same
// table; and passing it on as bytes — re-chunked by a ChunkWriter, or merged
// — puts on the wire what decoding and re-encoding did, pool strings no
// entry uses dropped and duplicated ones collapsed. RankOrder refuses what
// Validate refuses of the decoded table, in the same words, and publishing
// in its order emits the chunks of the rank-sorted table.
func FuzzWireMatchesTable(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add(synthTable(0).Encode(), uint16(0))
	f.Add(synthTable(64).Encode(), uint16(100))
	f.Add(randomTable(rand.New(rand.NewSource(1)), 40).Encode(), uint16(64))
	// A pool with an unused string and one string twice, entries using both copies.
	hostile := lmonp.AppendStringList(nil, []string{"unused", "h", "e", "h"})
	hostile = lmonp.AppendUint32(hostile, 2)
	hostile = appendEntry(appendEntry(hostile, 3, 2, 7, 0), 1, 2, 8, 1)
	f.Add(hostile, uint16(40))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 'h', 0, 0, 0, 1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2}, uint16(0))    // pool index out of range
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 'h', 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0, 0, 1, 0, 0, 0, 2}, uint16(0)) // pid overflows
	// Tables Scan accepts and Validate does not: entries as host, exe, pid, rank.
	wire := func(pool []string, entries ...[4]uint32) []byte {
		b := lmonp.AppendUint32(lmonp.AppendStringList(nil, pool), uint32(len(entries)))
		for _, e := range entries {
			b = appendEntry(b, e[0], e[1], e[2], e[3])
		}
		return b
	}
	f.Add(wire([]string{"h", "e"}, [4]uint32{0, 1, 7, 0}, [4]uint32{0, 1, 8, 5}), uint16(0))                         // rank out of range
	f.Add(wire([]string{"h", "e"}, [4]uint32{0, 1, 7, 1}, [4]uint32{0, 1, 8, 0}, [4]uint32{0, 1, 9, 1}), uint16(40)) // entry 0's rank again
	f.Add(wire([]string{"", "e"}, [4]uint32{0, 1, 7, 0}), uint16(0))                                                 // empty host
	f.Add(wire([]string{"h", ""}, [4]uint32{0, 1, 7, 0}), uint16(0))                                                 // empty exe

	f.Fuzz(func(t *testing.T, data []byte, bound uint16) {
		want, wantErr := referenceDecode(data)
		c, err := Scan(data)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("Scan: %v; the materializing decoder: %v", err, wantErr)
		}
		if _, derr := Decode(data); (derr == nil) != (err == nil) || derr != nil && derr.Error() != err.Error() {
			t.Fatalf("Decode: %v; Scan: %v", derr, err)
		}
		if err != nil {
			return
		}
		if got := c.AppendTo(nil); len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("AppendTo(nil) materializes %d entries that differ from the %d the old decoder returned", len(got), len(want))
		}
		if got, ref := AppendMerged(nil, c), referenceEncode(want); !bytes.Equal(got, ref) {
			t.Fatalf("AppendMerged differs from decode + encode\n got  %x\n want %x", got, ref)
		}
		writeChunks(t, int(bound), func(w *ChunkWriter) error { return w.AddChunk(c) }).
			mustEqual(t, referenceChunks(want, int(bound)), "Scan + AddChunk against Decode + AddTable")

		// The launcher's publication: RankOrder checks what Validate checks,
		// and the entries written in its order are the rank-sorted table's.
		order, err := c.RankOrder()
		if verr := want.Validate(); (err == nil) != (verr == nil) || err != nil && err.Error() != verr.Error() {
			t.Fatalf("RankOrder: %v; Validate: %v", err, verr)
		}
		if err != nil {
			return
		}
		got := writeChunks(t, int(bound), func(w *ChunkWriter) error {
			for _, i := range order {
				hi, ei, pid, rank := c.Entry(int(i))
				if err := w.AddRaw(c.pool[hi], c.pool[ei], pid, rank); err != nil {
					return err
				}
			}
			return nil
		})
		sorted := append(Table(nil), want...)
		sorted.SortByRank()
		if ref := sorted.EncodeChunks(int(bound)); !slices.EqualFunc(got.chunks, ref, bytes.Equal) {
			t.Fatalf("AddRaw in RankOrder: %d chunks that differ from the %d of SortByRank + EncodeChunks", len(got.chunks), len(ref))
		}
	})
}

// FuzzSeedStreamValidate exercises the streaming seed-validation path end
// to end: a rank slice goes through ChunkWriter (the sender side of every
// hop — engine, FE relay, interior seed router) and back through
// Assembler/FinishSlice (the receiver side), with the rolling digest
// standing in for the end marker. An uncorrupted stream must reassemble
// to the exact slice with matching digests; a stream with any single bit
// flipped in any chunk must never pass silently — decode failure, digest
// mismatch, or slice validation must catch it. The digest carries the
// whole burden when the flipped chunk still decodes (Sum64 over the raw
// chunk bytes changes on any change inside one 8-byte word), so this is
// the property that lets every rank validate its slice before the ready
// gather without a second table copy.
func FuzzSeedStreamValidate(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint16(0), uint32(0), false)
	f.Add(uint16(1), uint16(64), uint16(0), uint32(0), true)
	f.Add(uint16(200), uint16(128), uint16(3), uint32(9999), true)
	f.Add(uint16(300), uint16(97), uint16(1), uint32(17), true)

	f.Fuzz(func(t *testing.T, n, chunkBytes, stride uint16, flipAt uint32, flip bool) {
		// A rank slice of a larger table: strided global ranks, like the
		// slice a daemon hosting every stride-th rank would receive.
		entries := int(n) % 512
		step := int(stride)%7 + 1
		slice := make(Table, 0, entries)
		for i := 0; i < entries; i++ {
			slice = append(slice, ProcDesc{
				Host: fmt.Sprintf("n%d", i/4),
				Exe:  "app",
				Pid:  100 + i,
				Rank: i * step,
			})
		}

		var chunks [][]byte
		w := NewChunkWriter(int(chunkBytes), func(chunk []byte, sum uint64) error {
			if sum != lmonp.Sum64(chunk) {
				t.Fatalf("writer emitted sum %#x != Sum64(chunk)", sum)
			}
			chunks = append(chunks, chunk)
			return nil
		})
		if err := w.AddTable(slice); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}

		// Optionally flip one bit somewhere in the stream.
		corrupted := false
		if flip {
			var total int
			for _, c := range chunks {
				total += len(c)
			}
			if total > 0 {
				off := int(flipAt % uint32(total))
				for ci := range chunks {
					if off < len(chunks[ci]) {
						mut := append([]byte(nil), chunks[ci]...)
						mut[off] ^= 1 << (flipAt % 8)
						chunks[ci] = mut
						corrupted = true
						break
					}
					off -= len(chunks[ci])
				}
			}
		}

		var asm Assembler
		var addErr error
		for _, c := range chunks {
			if addErr = asm.Add(c); addErr != nil {
				break
			}
		}
		digestOK := addErr == nil && asm.streamDigest() == w.Digest()
		var tab Table
		var finErr error
		if addErr == nil {
			tab, finErr = asm.FinishSlice(entries)
		}

		if !corrupted {
			if addErr != nil {
				t.Fatalf("clean stream rejected by Add: %v", addErr)
			}
			if !digestOK {
				t.Fatalf("clean stream digest mismatch: writer %#x, assembler %#x", w.Digest(), asm.streamDigest())
			}
			if finErr != nil {
				t.Fatalf("clean stream rejected by FinishSlice: %v", finErr)
			}
			if entries > 0 && !reflect.DeepEqual(tab, slice) {
				t.Fatal("clean stream reassembled to a different slice")
			}
			return
		}
		// Corruption must be caught by at least one of the three layers.
		if addErr == nil && digestOK && finErr == nil {
			t.Fatal("single-bit corruption passed decode, digest and slice validation silently")
		}
	})
}
