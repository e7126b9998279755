package lmonp

import (
	"encoding/binary"
	"math/bits"
)

// Streaming payload checksums. Chunked streams — the RPDTAB harvest, the
// ICCL seed — validate without retaining: each chunk has Sum64 of its
// body, and the stream's end marker carries the rolling digest of the
// per-chunk sums in order, built with FoldSum from SumInit. A receiver
// folds every chunk at O(chunk) memory and compares the digest at the
// end, replacing the old retain-and-compare check that kept a second full
// table per rank.
//
// Sum64 reads the body eight bytes a step, in four independent lanes, and
// every word, lane and the length pass through one step function that is
// a bijection of the state for a fixed word and injective in the word for
// a fixed state; the finalizer is a bijection too. So two bodies of one
// length that differ only inside one aligned 8-byte word always have
// different sums — what FNV-1a guaranteed per byte, at one multiply per
// word instead of one per byte. (XXH64 is faster still, but its lane
// merge folds each lane in twice, so a one-lane difference can cancel.)

const (
	// SumInit is the initial rolling-digest state (FNV-1a offset basis).
	SumInit  uint64 = 14695981039346656037
	fnvPrime uint64 = 1099511628211

	// Odd multipliers (XXH64's primes), so each multiply is a bijection.
	sumM1 uint64 = 0x9E3779B185EBCA87
	sumM2 uint64 = 0xC2B2AE3D27D4EB4F
	sumM3 uint64 = 0x165667B19E3779F9
)

// sumStep folds one word into a state.
func sumStep(h, w uint64) uint64 {
	return bits.RotateLeft64((h^w)*sumM1, 31)
}

// Sum64 returns the checksum of b.
func Sum64(b []byte) uint64 {
	n := len(b)
	h := SumInit
	if len(b) >= 32 {
		v1, v2, v3, v4 := SumInit, sumM1, sumM2, sumM3
		for ; len(b) >= 32; b = b[32:] {
			v1 = sumStep(v1, binary.LittleEndian.Uint64(b))
			v2 = sumStep(v2, binary.LittleEndian.Uint64(b[8:]))
			v3 = sumStep(v3, binary.LittleEndian.Uint64(b[16:]))
			v4 = sumStep(v4, binary.LittleEndian.Uint64(b[24:]))
		}
		h = sumStep(sumStep(sumStep(sumStep(h, v1), v2), v3), v4)
	}
	for ; len(b) >= 8; b = b[8:] {
		h = sumStep(h, binary.LittleEndian.Uint64(b))
	}
	if len(b) > 0 {
		var w uint64
		for i, c := range b {
			w |= uint64(c) << (8 * i)
		}
		h = sumStep(h, w)
	}
	h = sumStep(h, uint64(n))
	h ^= h >> 33
	h *= sumM2
	h ^= h >> 29
	h *= sumM3
	return h ^ h>>32
}

// FoldSum folds one chunk sum into a rolling stream digest, byte by byte
// (big-endian), continuing the FNV-1a state in acc.
func FoldSum(acc, sum uint64) uint64 {
	for shift := 56; shift >= 0; shift -= 8 {
		acc ^= (sum >> uint(shift)) & 0xff
		acc *= fnvPrime
	}
	return acc
}
