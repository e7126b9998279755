package core

import (
	"bytes"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/engine"
	"launchmon/internal/iccl"
	"launchmon/internal/lmonp"
	"launchmon/internal/vtime"
)

// The master builds the ready payload from the gathered DaemonInfo blobs as
// they arrived. The payload must be what decoding every blob and
// re-encoding the records produced before: gather them over a 3-level tree
// (13 daemons, fanout 3), decode the payload the way the FE does, and
// re-encode field by field.
func TestReadyPayloadFromGatheredBlobsEqualsReencoding(t *testing.T) {
	const n, fanout = 13, 3
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	nodelist := make([]string, n)
	for i := range nodelist {
		nodelist[i] = cl.Node(i).Name()
	}
	var tl engine.Timeline
	tl.Mark(engine.MarkE8, 5*time.Millisecond)
	tl.Mark(engine.MarkE9, 7*time.Millisecond)
	var gathered [][]byte
	sim.Go("boot", func() {
		for i := 0; i < n; i++ {
			i := i
			if _, err := cl.Node(i).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
				comm, err := iccl.Bootstrap(p, iccl.Config{Rank: i, Size: n, Fanout: fanout, Nodelist: nodelist, Port: 50011})
				if err != nil {
					t.Errorf("rank %d: %v", i, err)
					return
				}
				defer comm.Close()
				all, err := comm.Gather(encodeDaemonInfo(DaemonInfo{
					Rank: i, Host: p.Node().Name(), Pid: p.Pid(), Tasks: i % 3, PeakBytes: 1000 + 17*i,
				}))
				if err != nil {
					t.Errorf("rank %d: %v", i, err)
				}
				if comm.IsMaster() {
					gathered = all
				}
			}}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	sim.Run()
	if len(gathered) != n {
		t.Fatalf("master gathered %d of %d blobs", len(gathered), n)
	}
	for _, obsBlob := range [][]byte{nil, []byte("harvested-metrics")} {
		payload := encodeReady(gathered, tl, obsBlob)
		infos, gotTL, gotObs, err := decodeReady(payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != n || !bytes.Equal(gotObs, obsBlob) {
			t.Fatalf("decoded %d infos, obs blob %q", len(infos), gotObs)
		}
		list := lmonp.AppendUint32(nil, uint32(len(infos)))
		for rk, di := range infos {
			if di.Rank != rk || di.Host != nodelist[rk] || di.PeakBytes != 1000+17*rk {
				t.Errorf("slot %d decodes to %+v", rk, di)
			}
			list = lmonp.AppendBytes(list, encodeDaemonInfo(di))
		}
		want := lmonp.AppendBytes(nil, list)
		want = lmonp.AppendBytes(want, gotTL.Encode())
		if obsBlob != nil {
			want = lmonp.AppendBytes(want, obsBlob)
		}
		if !bytes.Equal(payload, want) {
			t.Errorf("ready payload (obs %v) differs from the decode → re-encode form:\n got  %x\n want %x", obsBlob != nil, payload, want)
		}
	}
}
