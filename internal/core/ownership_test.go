package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
	"launchmon/internal/rm"
)

// TestFECallerMayScribbleOnWhatItSent pins the front-end edge of the
// buffer-ownership rule: Session.BroadcastTag and Session.Broadcast copy the
// caller's data exactly once, into the messages they send, so it is the
// caller's again the instant the call returns — long before the chunks
// have crossed the FE link, let alone the tree. The caller overwrites it at
// once; every daemon must still read the original and echo its digest.
func TestFECallerMayScribbleOnWhatItSent(t *testing.T) {
	const nodes = 13
	sim, cl, _ := rig(t, nodes)
	data := make([]byte, 8<<10) // 32 chunks at 256 B
	for i := range data {
		data[i] = byte(i * 11)
	}
	second := bytes.Repeat([]byte{0x5A}, 1000)
	echo := func(tagged, lockstep []byte) []byte {
		b := binary.BigEndian.AppendUint64(nil, lmonp.Sum64(tagged))
		return binary.BigEndian.AppendUint64(b, lmonp.Sum64(lockstep))
	}
	tag := coll.MinUserTag // what AllocTag hands out first

	cl.Register("own_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			t.Errorf("BEInit: %v", err)
			return
		}
		dc := be.Collective()
		got, err := dc.BroadcastTag(tag)
		if err != nil {
			t.Errorf("rank %d: BroadcastTag: %v", be.Rank(), err)
			return
		}
		next, err := dc.Broadcast()
		if err != nil {
			t.Errorf("rank %d: Broadcast: %v", be.Rank(), err)
			return
		}
		if err := dc.Gather(echo(got, next)); err != nil {
			t.Errorf("rank %d: Gather: %v", be.Rank(), err)
		}
		be.Finalize()
	})
	runFE(t, sim, cl, func(p *cluster.Proc) {
		s, err := LaunchAndSpawn(p, Options{
			Job:            rm.JobSpec{Exe: "app", Nodes: nodes, TasksPerNode: 1},
			Daemon:         rm.DaemonSpec{Exe: "own_be"},
			ICCLFanout:     3,
			CollChunkBytes: 256,
		})
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Kill()
		if got := s.AllocTag(); got != tag {
			t.Errorf("AllocTag = %d, want %d", got, tag)
			return
		}
		scribble := func(b []byte) {
			for i := range b {
				b[i] = 0xEE
			}
		}
		sent := append([]byte(nil), data...)
		if err := s.BroadcastTag(tag, sent); err != nil {
			t.Error(err)
			return
		}
		scribble(sent)
		sent = append([]byte(nil), second...)
		if err := s.Broadcast(sent); err != nil {
			t.Error(err)
			return
		}
		scribble(sent)
		all, err := s.Gather()
		if err != nil {
			t.Error(err)
			return
		}
		for rk, got := range all {
			if !bytes.Equal(got, echo(data, second)) {
				t.Errorf("rank %d read something the FE caller wrote after its send returned", rk)
			}
		}
	})
}
