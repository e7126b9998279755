package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Snapshot wire format (big endian), self-contained so the tree fold can
// merge blobs without a schema exchange:
//
//	uint32 magic "OBS1"
//	uint32 counter count, then per counter: uint16 name len, name, uint64
//	uint32 gauge count,   then per gauge:   uint16 name len, name, uint64
//
// Names are encoded in lexical order, so equal snapshots produce equal
// bytes and harvest message sizes are deterministic run to run.
const snapMagic = 0x4f425331 // "OBS1"

// errBadSnapshot is returned when decoding malformed snapshot bytes.
var errBadSnapshot = errors.New("obs: bad snapshot encoding")

// Encode renders the snapshot into the wire format.
func (s Snapshot) Encode() []byte {
	size := 12
	for name := range s.Counters {
		size += 2 + len(name) + 8
	}
	for name := range s.Gauges {
		size += 2 + len(name) + 8
	}
	b := make([]byte, 0, size)
	b = binary.BigEndian.AppendUint32(b, snapMagic)
	b = appendSection(b, s.Counters)
	b = appendSection(b, s.Gauges)
	return b
}

func appendSection(b []byte, m map[string]uint64) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(m)))
	for _, name := range sortedKeys(m) {
		b = binary.BigEndian.AppendUint16(b, uint16(len(name)))
		b = append(b, name...)
		b = binary.BigEndian.AppendUint64(b, m[name])
	}
	return b
}

// DecodeSnapshot parses wire-format snapshot bytes. Empty input decodes
// to an empty snapshot (the obs-off harvest blob).
func DecodeSnapshot(b []byte) (Snapshot, error) {
	s := Snapshot{Counters: map[string]uint64{}, Gauges: map[string]uint64{}}
	if len(b) == 0 {
		return s, nil
	}
	if len(b) < 4 || binary.BigEndian.Uint32(b) != snapMagic {
		return s, fmt.Errorf("%w: bad magic", errBadSnapshot)
	}
	rest, err := decodeSection(b[4:], s.Counters)
	if err != nil {
		return s, err
	}
	rest, err = decodeSection(rest, s.Gauges)
	if err != nil {
		return s, err
	}
	if len(rest) != 0 {
		return s, fmt.Errorf("%w: %d trailing bytes", errBadSnapshot, len(rest))
	}
	return s, nil
}

func decodeSection(b []byte, m map[string]uint64) ([]byte, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: short section header", errBadSnapshot)
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	for i := uint32(0); i < n; i++ {
		if len(b) < 2 {
			return nil, fmt.Errorf("%w: short name length", errBadSnapshot)
		}
		nl := int(binary.BigEndian.Uint16(b))
		b = b[2:]
		if len(b) < nl+8 {
			return nil, fmt.Errorf("%w: short entry", errBadSnapshot)
		}
		name := string(b[:nl])
		m[name] = binary.BigEndian.Uint64(b[nl:])
		b = b[nl+8:]
	}
	return b, nil
}

// MergeEncoded merges two wire-format snapshots into one: the combine the
// metrics harvest's tree fold (iccl.Comm.FoldUp) folds with, acc nil on the
// first call. It is associative and commutative: counters sum, gauges max.
func MergeEncoded(acc, next []byte) ([]byte, error) {
	if acc == nil {
		a, err := DecodeSnapshot(next)
		if err != nil {
			return nil, err
		}
		return a.Encode(), nil
	}
	a, err := DecodeSnapshot(acc)
	if err != nil {
		return nil, err
	}
	b, err := DecodeSnapshot(next)
	if err != nil {
		return nil, err
	}
	a.Merge(b)
	return a.Encode(), nil
}
