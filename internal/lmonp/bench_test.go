package lmonp

import (
	"bytes"
	"io"
	"testing"
)

// The benchmark's lmonp kernels (benchmark/kernels.go) as testing.B: one
// message written to a discarding writer, one read back off a stream, at
// the two sizes the launch path sends — a 64-byte control message and a
// 64 KiB chunk — and the chunk checksum. Run with -benchmem.

func benchMsg(size int) *Msg {
	return &Msg{Class: ClassFEBE, Type: TypeUsrData, Payload: make([]byte, 16), UsrData: make([]byte, size)}
}

func benchWrite(b *testing.B, size int) {
	m := benchMsg(size)
	b.ReportAllocs()
	b.SetBytes(int64(m.wireSize()))
	for i := 0; i < b.N; i++ {
		if err := Write(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRead(b *testing.B, size int) {
	enc, err := benchMsg(size).Encode()
	if err != nil {
		b.Fatal(err)
	}
	const batch = 256
	stream := bytes.Repeat(enc, batch)
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	rd := bytes.NewReader(nil)
	for i := 0; i < b.N; i++ {
		if i%batch == 0 {
			rd.Reset(stream)
		}
		if _, err := Read(rd); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWrite64B(b *testing.B) { benchWrite(b, 64) }
func BenchmarkRead64B(b *testing.B)  { benchRead(b, 64) }
func BenchmarkWrite64K(b *testing.B) { benchWrite(b, 64<<10) }
func BenchmarkRead64K(b *testing.B)  { benchRead(b, 64<<10) }

var sinkSum uint64

func BenchmarkSum64(b *testing.B) {
	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		sinkSum += Sum64(buf)
	}
}
