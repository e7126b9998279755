package lmonp

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReader drives every Reader accessor over arbitrary bytes: no input
// may panic, and a successful read must consume a plausible number of
// bytes (never more than were available).
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendString(nil, "hello"))
	f.Add(AppendStringList(nil, []string{"a", "bb", ""}))
	f.Add(AppendStringMap(nil, [][2]string{{"k", "v"}}))
	f.Add(AppendBytes(AppendUint32(AppendUint64(nil, 1<<40), 7), []byte{1, 2, 3}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                         // absurd count
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01}) // list claiming 2 entries, 4 bytes left

	f.Fuzz(func(t *testing.T, data []byte) {
		// Each accessor on its own Reader over the same input.
		r := NewReader(data)
		if s := r.String(); r.Err() == nil && len(s) > len(data) {
			t.Fatalf("String longer than input: %d > %d", len(s), len(data))
		}
		r = NewReader(data)
		if b := r.Bytes(); r.Err() == nil && len(b) > len(data) {
			t.Fatalf("Bytes longer than input")
		}
		r = NewReader(data)
		if ss := r.StringList(); r.Err() == nil {
			// n entries need at least 4 bytes each after the count.
			if len(ss)*4 > len(data)-4 {
				t.Fatalf("list of %d entries decoded from %d bytes", len(ss), len(data))
			}
		} else if ss != nil {
			t.Fatalf("failed StringList returned %d entries", len(ss))
		}
		r = NewReader(data)
		if kv := r.StringMap(); r.Err() == nil {
			if len(kv)*8 > len(data)-4 {
				t.Fatalf("map of %d entries decoded from %d bytes", len(kv), len(data))
			}
		} else if kv != nil {
			t.Fatalf("failed StringMap returned %d entries", len(kv))
		}
		// A mixed sequence must keep Remaining consistent.
		r = NewReader(data)
		for r.Remaining() > 0 {
			before := r.Remaining()
			if r.Uint32(); r.Err() != nil {
				break
			}
			if r.Remaining() >= before {
				t.Fatal("Uint32 consumed nothing")
			}
		}
		// The first error sticks: once a read has failed, every accessor
		// returns its zero value and consumes nothing.
		r = NewReader(data)
		for r.Err() == nil {
			r.Bytes()
		}
		failed, left := r.Err(), r.Remaining()
		if r.Byte() != 0 || r.Uint32() != 0 || r.Uint64() != 0 || r.String() != "" || r.Bytes() != nil ||
			r.Count(1) != 0 || r.StringList() != nil || r.StringMap() != nil {
			t.Fatal("a read after a failed read returned a value")
		}
		if r.Err() != failed || r.Remaining() != left {
			t.Fatalf("a read after a failed read moved the Reader: %v → %v, %d → %d bytes left", failed, r.Err(), left, r.Remaining())
		}
	})
}

// TestLengthGuardBoundaries pins the exact count guards: a count whose
// minimum encoding cannot fit in the remaining bytes must be rejected,
// while one that exactly fits must decode.
func TestLengthGuardBoundaries(t *testing.T) {
	// List claiming 1 entry with zero bytes left: impossible.
	if r := NewReader(AppendUint32(nil, 1)); r.StringList() != nil || r.Err() == nil {
		t.Error("list count 1 with 0 remaining bytes accepted")
	}
	// Map claiming 1 entry with only 4 bytes left (needs >= 8).
	if r := NewReader(AppendUint32(AppendUint32(nil, 1), 0)); r.StringMap() != nil || r.Err() == nil {
		t.Error("map count 1 with 4 remaining bytes accepted")
	}
	// Exactly-fitting boundary: n empty strings in exactly 4n bytes.
	ok := AppendStringList(nil, []string{"", "", ""})
	r := NewReader(ok)
	if ss := r.StringList(); r.Err() != nil || len(ss) != 3 {
		t.Errorf("exact-fit list rejected: %v, %v", ss, r.Err())
	}
	okMap := AppendStringMap(nil, [][2]string{{"", ""}})
	r = NewReader(okMap)
	if kv := r.StringMap(); r.Err() != nil || len(kv) != 1 {
		t.Errorf("exact-fit map rejected: %v, %v", kv, r.Err())
	}
}

// FuzzMsgRead feeds arbitrary bytes to the LMONP decoder as one whole
// message. Whatever it accepts must be exactly the encoding of what it
// decoded — no byte is dropped, added or read as another field — and Read
// must decode the same message off a stream.
func FuzzMsgRead(f *testing.F) {
	ok, _ := (&Msg{Class: ClassFEBE, Type: TypeHandshake, Payload: []byte("p"), UsrData: []byte("u")}).Encode()
	f.Add(ok)
	f.Add(ok[:headerSize-1])
	f.Add(bytes.Repeat([]byte{0xff}, headerSize))
	f.Add(append(ok[:len(ok):len(ok)], 0)) // a byte its header does not announce

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decode(data)
		if err != nil {
			return
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("re-encode of decoded message failed: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("%x decoded to a message that encodes as %x", data, enc)
		}
		if back, err := Read(bytes.NewReader(data)); err != nil || !reflect.DeepEqual(back, m) {
			t.Fatalf("Read decodes %x to %+v, %v; decode to %+v", data, back, err, m)
		}
	})
}
