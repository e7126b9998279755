package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/iccl"
	"launchmon/internal/lmonp"
	"launchmon/internal/rm"
	"launchmon/internal/vtime"
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

// TestToolOwnsTheToolDataItReceives pins the receiving edge of the
// buffer-ownership rule for point-to-point tool data: Session.RecvFromBE
// and BackEnd.RecvFromFE — and Session.RecvFromMW, which shares their
// rxStreams.recvUsr — return the tool's own copy, not the section of the
// LMONP message the data arrived in, so the tool may write over it and keep
// it. Each end's sorted receive side is fed one message through an
// lmonp.Conn handler, as its connection's handler feeds it; the tool
// scribbles over what it received, and the message must still read as sent.
func TestToolOwnsTheToolDataItReceives(t *testing.T) {
	data := []byte("tool data")
	for _, end := range []struct {
		name string
		open func(p *cluster.Proc) (*rxStreams, func() ([]byte, error))
	}{
		{"Session.RecvFromBE", func(p *cluster.Proc) (*rxStreams, func() ([]byte, error)) {
			s := &Session{p: p, state: stReady}
			rx := newRxStreams(p.Sim(), "master daemon", nil, nil)
			s.be = feFabric{s: s, prof: beFabric, st: fabUp, rx: rx}
			return rx, s.RecvFromBE
		}},
		{"BackEnd.RecvFromFE", func(p *cluster.Proc) (*rxStreams, func() ([]byte, error)) {
			comm, err := iccl.Bootstrap(p, iccl.Config{Size: 1, Nodelist: []string{p.Node().Name()}, Port: 50021})
			if err != nil {
				t.Fatal(err)
			}
			rx := newRxStreams(p.Sim(), "front end", nil, nil)
			be := &BackEnd{&daemonSession{p: p, comm: comm, feRx: rx}}
			return rx, be.RecvFromFE
		}},
	} {
		t.Run(end.name, func(t *testing.T) {
			sim := vtime.New()
			cl, err := cluster.New(sim, cluster.Options{Nodes: 1})
			if err != nil {
				t.Fatal(err)
			}
			wire, err := (&lmonp.Msg{Class: lmonp.ClassFEBE, Type: lmonp.TypeUsrData, UsrData: data}).Encode()
			if err != nil {
				t.Fatal(err)
			}
			sent := bytes.Clone(wire)
			sim.Go("boot", func() {
				cl.Node(0).SpawnProc(cluster.Spec{Exe: "tool", Main: func(p *cluster.Proc) {
					rx, recv := end.open(p)
					var ep handedOver
					lmonp.NewConn(&ep).Handle(func(m *lmonp.Msg, err error) {
						if err == nil {
							rx.sort(m)
						}
					})
					sim.After(0, func() { ep.deliver(wire, nil) })
					got, err := recv()
					if err != nil || !bytes.Equal(got, data) {
						t.Errorf("received %q, %v; want %q", got, err, data)
						return
					}
					for i := range got {
						got[i] = 0xEE
					}
					if !bytes.Equal(wire, sent) {
						t.Errorf("the tool's write reached the message its data arrived in: %q", wire)
					}
				}})
			})
			sim.Run()
		})
	}
}

// handedOver is an lmonp endpoint whose deliveries a test makes itself.
type handedOver struct {
	sink
	deliver func(msg []byte, err error)
}

func (h *handedOver) Handle(fn func(msg []byte, err error)) { h.deliver = fn }
