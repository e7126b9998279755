package lmonp

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestHeaderIs16Bytes(t *testing.T) {
	m := &Msg{Class: ClassFEBE, Type: TypeReady}
	buf, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 16 {
		t.Fatalf("empty message wire size = %d, want 16", len(buf))
	}
}

func TestRoundTrip(t *testing.T) {
	in := &Msg{
		Class:   ClassFEEngine,
		Type:    TypeProctabChunk,
		Flags:   0xBEEF,
		Seq:     42,
		Payload: []byte("launchmon-data"),
		UsrData: []byte("tool-data"),
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("roundtrip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestClassIsThreeBits(t *testing.T) {
	for _, c := range []MsgClass{ClassFEEngine, ClassFEBE, ClassFEMW, 7} {
		m := &Msg{Class: c, Type: TypeReady}
		buf, _ := m.Encode()
		out, err := Read(bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		if out.Class != c {
			t.Errorf("class %d decoded as %d", c, out.Class)
		}
	}
}

func TestBadVersionRejected(t *testing.T) {
	m := &Msg{Class: ClassFEBE, Type: TypeReady}
	buf, _ := m.Encode()
	buf[0] = (buf[0] &^ 0x1f) | 9 // corrupt version bits
	if _, err := Read(bytes.NewReader(buf)); !errors.Is(err, errBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestOversizedLengthRejected(t *testing.T) {
	m := &Msg{Class: ClassFEBE, Type: TypeReady}
	buf, _ := m.Encode()
	buf[4], buf[5], buf[6], buf[7] = 0xff, 0xff, 0xff, 0xff
	if _, err := Read(bytes.NewReader(buf)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestShortHeader(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{1, 2, 3})); !errors.Is(err, errShortHeader) {
		t.Fatalf("err = %v, want ErrShortHeader", err)
	}
}

func TestTruncatedPayload(t *testing.T) {
	m := &Msg{Class: ClassFEBE, Type: TypeReady, Payload: []byte("0123456789")}
	buf, _ := m.Encode()
	if _, err := Read(bytes.NewReader(buf[:len(buf)-4])); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestEOFOnEmptyStream(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

// queue is an Endpoint in memory: what is sent is received, in order, and
// a test delivers to the installed handler itself.
type queue struct {
	msgs    [][]byte
	deliver func(msg []byte, err error)
}

func (q *queue) Send(msg []byte) error { q.msgs = append(q.msgs, msg); return nil }

func (q *queue) RecvMessage() ([]byte, error) {
	if len(q.msgs) == 0 {
		return nil, io.EOF
	}
	msg := q.msgs[0]
	q.msgs = q.msgs[1:]
	return msg, nil
}

func (q *queue) Handle(fn func(msg []byte, err error)) { q.deliver = fn }
func (q *queue) Close() error                          { return nil }
func (q *queue) Sever()                                {}

func TestConnSequenceNumbers(t *testing.T) {
	var q queue
	c := NewConn(&q)
	for i := 1; i <= 3; i++ {
		if err := c.Send(&Msg{Class: ClassFEBE, Type: TypeReady}); err != nil {
			t.Fatal(err)
		}
	}
	r := NewConn(&q)
	for i := 1; i <= 3; i++ {
		m, err := r.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Seq != uint32(i) {
			t.Fatalf("seq = %d, want %d", m.Seq, i)
		}
	}
}

func TestExpect(t *testing.T) {
	var q queue
	c := NewConn(&q)
	c.Send(&Msg{Class: ClassFEMW, Type: TypeHandshake})
	r := NewConn(&q)
	if _, err := r.Expect(ClassFEMW, TypeHandshake); err != nil {
		t.Fatal(err)
	}
	c.Send(&Msg{Class: ClassFEMW, Type: TypeReady})
	if _, err := r.Expect(ClassFEBE, TypeReady); err == nil {
		t.Fatal("Expect accepted wrong class")
	}
}

func TestMultipleMessagesBackToBack(t *testing.T) {
	var buf bytes.Buffer
	msgs := []*Msg{
		{Class: ClassFEEngine, Type: TypeLaunchReq, Payload: []byte("a")},
		{Class: ClassFEBE, Type: TypeHandshake, UsrData: []byte("bb")},
		{Class: ClassFEMW, Type: TypeReady},
	}
	for _, m := range msgs {
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if got.Class != want.Class || got.Type != want.Type ||
			!bytes.Equal(got.Payload, want.Payload) || !bytes.Equal(got.UsrData, want.UsrData) {
			t.Fatalf("msg %d mismatch", i)
		}
	}
}

// Property: encode/decode round-trips arbitrary payload pairs.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(class uint8, typ uint8, flags uint16, seq uint32, payload, usr []byte) bool {
		in := &Msg{
			Class:   MsgClass(class & 0x7),
			Type:    MsgType(typ),
			Flags:   flags,
			Seq:     seq,
			Payload: payload,
			UsrData: usr,
		}
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			return false
		}
		out, err := Read(&buf)
		if err != nil {
			return false
		}
		if out.Class != in.Class || out.Type != in.Type || out.Flags != in.Flags || out.Seq != in.Seq {
			return false
		}
		return bytes.Equal(out.Payload, in.Payload) && bytes.Equal(out.UsrData, in.UsrData)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWireHelpersRoundTrip(t *testing.T) {
	b := AppendUint32(nil, 7)
	b = AppendUint64(b, 1<<40)
	b = AppendString(b, "hello")
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendStringList(b, []string{"x", "", "zzz"})
	b = AppendStringMap(b, [][2]string{{"k1", "v1"}, {"k2", "v2"}})

	r := NewReader(b)
	if v := r.Uint32(); r.Err() != nil || v != 7 {
		t.Fatalf("Uint32 = %d, %v", v, r.Err())
	}
	if v := r.Uint64(); r.Err() != nil || v != 1<<40 {
		t.Fatalf("Uint64 = %d, %v", v, r.Err())
	}
	if s := r.String(); r.Err() != nil || s != "hello" {
		t.Fatalf("String = %q, %v", s, r.Err())
	}
	if p := r.Bytes(); r.Err() != nil || !bytes.Equal(p, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v, %v", p, r.Err())
	}
	if ss := r.StringList(); r.Err() != nil || !reflect.DeepEqual(ss, []string{"x", "", "zzz"}) {
		t.Fatalf("StringList = %v, %v", ss, r.Err())
	}
	if kv := r.StringMap(); r.Err() != nil || len(kv) != 2 || kv[1][1] != "v2" {
		t.Fatalf("StringMap = %v, %v", kv, r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over", r.Remaining())
	}
}

func TestReaderTruncation(t *testing.T) {
	full := AppendString(nil, "hello")
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		if s := r.String(); s != "" || !errors.Is(r.Err(), errTruncated) {
			t.Fatalf("truncation at %d accepted: %v", cut, r.Err())
		}
	}
	// Hostile list count must not over-allocate or succeed.
	bad := AppendUint32(nil, 1<<30)
	if r := NewReader(bad); r.StringList() != nil || r.Err() == nil {
		t.Fatal("hostile list count accepted")
	}
	if r := NewReader(bad); r.StringMap() != nil || r.Err() == nil {
		t.Fatal("hostile map count accepted")
	}
}

// TestStringMapBytesChecksAsStringMap: the encoding StringMapBytes returns
// for a later decode is accepted and refused exactly where StringMap would
// be — at every truncation of every encoding, behind a failed read, and
// under a count no payload could hold — and decodes to what StringMap reads.
func TestStringMapBytesChecksAsStringMap(t *testing.T) {
	for _, enc := range [][]byte{
		AppendStringMap(nil, nil),
		AppendStringMap(nil, [][2]string{{"", ""}}),
		AppendStringMap(nil, [][2]string{{"LMON_NNODES", "4"}, {"k", ""}, {"", "v"}}),
		append(AppendStringMap(nil, [][2]string{{"k", "v"}}), "trailing"...),
		AppendUint32(nil, 1<<30),
		AppendUint32(AppendUint32(nil, 1), 0),
	} {
		for cut := 0; cut <= len(enc); cut++ {
			for _, failFirst := range []bool{false, true} {
				want, got := NewReader(enc[:cut]), NewReader(enc[:cut])
				if failFirst {
					want.short()
					got.short()
				}
				kv, b := want.StringMap(), got.StringMapBytes()
				if (want.Err() == nil) != (got.Err() == nil) || want.Remaining() != got.Remaining() {
					t.Fatalf("%x cut at %d (failed read first: %v): StringMap err %v with %d left, StringMapBytes err %v with %d left",
						enc, cut, failFirst, want.Err(), want.Remaining(), got.Err(), got.Remaining())
				}
				if want.Err() != nil {
					if want.Err().Error() != got.Err().Error() || b != nil {
						t.Fatalf("%x cut at %d: StringMap failed with %v, StringMapBytes with %v and %d bytes",
							enc, cut, want.Err(), got.Err(), len(b))
					}
					continue
				}
				if start := len(enc[:cut]) - len(b) - got.Remaining(); !bytes.Equal(b, enc[start:start+len(b)]) {
					t.Fatalf("%x cut at %d: StringMapBytes returned %x, not the bytes it read", enc, cut, b)
				}
				r := NewReader(b)
				if again := r.StringMap(); r.Err() != nil || r.Remaining() != 0 || !reflect.DeepEqual(again, kv) {
					t.Fatalf("%x cut at %d: %x decodes to %v (%v, %d left), StringMap read %v", enc, cut, b, again, r.Err(), r.Remaining(), kv)
				}
			}
		}
	}
}

// TestReaderKeepsFirstError is the decode-error policy: a field whose
// length prefix overruns the payload fails the Reader where it stands —
// the fields behind it do not decode from the middle of it — and the
// error reported is that first one.
func TestReaderKeepsFirstError(t *testing.T) {
	// exe prefix reads 1000 over what would otherwise parse as an empty
	// string, an empty list and the string "node0".
	b := AppendUint32(nil, 1000)
	b = AppendString(b, "")
	b = AppendStringList(b, nil)
	b = AppendString(b, "node0")
	r := NewReader(b)
	exe, args, kv, nl := r.String(), r.StringList(), r.StringMap(), r.String()
	if exe != "" || args != nil || kv != nil || nl != "" {
		t.Fatalf("fields decoded past a failed read: %q %v %v %q", exe, args, kv, nl)
	}
	if err := r.Err(); !errors.Is(err, errTruncated) || !strings.Contains(err.Error(), "1000") {
		t.Fatalf("Err = %v, want the first failure (the 1000-byte field)", err)
	}
}

// Property: wire helper string lists round-trip.
func TestPropertyStringList(t *testing.T) {
	f := func(ss []string) bool {
		b := AppendStringList(nil, ss)
		r := NewReader(b)
		out := r.StringList()
		if r.Err() != nil {
			return false
		}
		if len(out) != len(ss) {
			return false
		}
		for i := range ss {
			if out[i] != ss[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMsgTypeWireValues pins the tag every message type puts on the wire:
// retiring a type must leave a gap, not renumber the types behind it.
func TestMsgTypeWireValues(t *testing.T) {
	for typ, want := range map[MsgType]uint8{
		TypeLaunchReq: 1, TypeAttachReq: 2, TypeSpawnReq: 3, TypeReady: 5,
		TypeDetach: 6, TypeKill: 7, TypeStatus: 9, TypeHandshake: 10,
		TypeUsrData: 11, TypeProctabChunk: 13, TypeProctabEnd: 14,
		TypeStatusEvent: 15, TypeCollChunk: 16, TypeCollEnd: 17, TypeObsMetrics: 18,
	} {
		if uint8(typ) != want {
			t.Errorf("%v travels as %d, want %d", typ, uint8(typ), want)
		}
	}
	if got := MsgType(4).String(); got != "type(4)" {
		t.Errorf("retired type 4 still has a name: %q", got)
	}
}

func TestConnHandleDecodesOneMessagePerDelivery(t *testing.T) {
	var stream queue
	var got []*Msg
	var errs []error
	NewConn(&stream).Handle(func(m *Msg, err error) {
		got, errs = append(got, m), append(errs, err)
	})
	want := &Msg{Class: ClassFEBE, Type: TypeUsrData, Seq: 7, Payload: []byte("lmon"), UsrData: []byte("tool")}
	wire, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}
	stream.deliver(wire, nil)
	stream.deliver(wire[:headerSize+2], nil) // a delivery cut short
	stream.deliver(nil, io.EOF)
	if len(got) != 3 || !reflect.DeepEqual(got[0], want) || errs[0] != nil {
		t.Fatalf("first delivery decoded to %+v, %v", got[0], errs[0])
	}
	if errs[1] == nil || got[1] != nil {
		t.Errorf("truncated delivery: %+v, %v; want an error", got[1], errs[1])
	}
	if errs[2] != io.EOF {
		t.Errorf("end of stream reported as %v, want io.EOF", errs[2])
	}
}
