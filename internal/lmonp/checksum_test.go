package lmonp

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestSum64ByteChangeAlwaysDetected flips every non-zero xor value into
// every byte of random buffers at lengths around the 8-byte word and the
// 32-byte block: a change confined to one word must change the sum, so
// no flipped buffer may keep its sum — not one in 2⁶⁴, none.
func TestSum64ByteChangeAlwaysDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100, 1000} {
		buf := make([]byte, n)
		rng.Read(buf)
		want := Sum64(buf)
		for off := range buf {
			orig := buf[off]
			for x := 1; x < 256; x++ {
				buf[off] = orig ^ byte(x)
				if Sum64(buf) == want {
					t.Fatalf("len %d: byte %d xor %#x keeps the sum %#x", n, off, x, want)
				}
			}
			buf[off] = orig
		}
	}
}

// TestSum64ZeroBuffersDiffer: buffers that differ only in length — the
// zero padding of a last partial word included — must not collide.
func TestSum64ZeroBuffersDiffer(t *testing.T) {
	seen := make(map[uint64]int)
	zeros := make([]byte, 200)
	for n := range zeros {
		s := Sum64(zeros[:n])
		if m, ok := seen[s]; ok {
			t.Fatalf("zero buffers of %d and %d bytes share the sum %#x", m, n, s)
		}
		seen[s] = n
	}
}

// TestSum64Golden pins Sum64 on three inputs — empty, one partial word,
// and lanes plus full and partial tail words — so that a change to the
// function, which every stream digest is built from, is a deliberate one.
func TestSum64Golden(t *testing.T) {
	ramp := make([]byte, 100)
	for i := range ramp {
		ramp[i] = byte(i)
	}
	for _, tc := range []struct {
		name string
		in   []byte
		want uint64
	}{
		{"empty", nil, 0x8a725534655a7ef1},
		{"launchmon", []byte("launchmon"), 0xfe07d68aded13603},
		{"ramp100", ramp, 0xef56a9de6b10a526},
	} {
		if got := Sum64(tc.in); got != tc.want {
			t.Errorf("Sum64(%s) = %#x, pinned %#x", tc.name, got, tc.want)
		}
	}
}

// FuzzSum64WordChange changes one aligned 8-byte word of a buffer (in a
// last partial word, only the bytes the buffer has): the sum must change.
func FuzzSum64WordChange(f *testing.F) {
	f.Add([]byte("launchmon"), uint16(1), uint64(1))
	f.Add(make([]byte, 64), uint16(3), uint64(1)<<63)
	f.Add(make([]byte, 100), uint16(12), ^uint64(0))
	f.Fuzz(func(t *testing.T, buf []byte, word uint16, x uint64) {
		if len(buf) == 0 {
			return
		}
		off := int(word) % ((len(buf) + 7) / 8) * 8
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], x)
		changed := false
		mut := append([]byte(nil), buf...)
		for i := 0; i < 8 && off+i < len(mut); i++ {
			mut[off+i] ^= w[i]
			changed = changed || w[i] != 0
		}
		if changed && Sum64(mut) == Sum64(buf) {
			t.Fatalf("word at %d xor %#x keeps the sum %#x of %x", off, x, Sum64(buf), buf)
		}
	})
}
