package core

import (
	"bytes"
	"testing"

	"launchmon/internal/cluster"
	"launchmon/internal/rm"
)

// BenchmarkSessionBroadcastGather is the FE hop end to end on one small
// session (seven daemons, fanout 2, 4 KiB chunks): an op is a 16 KiB
// Broadcast from the front end and a Gather of 64 B from every daemon back
// to it, b.N times on one launched session (the timer starts once it is
// up). An empty broadcast ends the daemons' loop.
func BenchmarkSessionBroadcastGather(b *testing.B) {
	const n, chunk = 7, 4 << 10
	payload := bytes.Repeat([]byte("launchmon-16KiB-"), 1<<10)
	b.ReportAllocs()
	sim, cl, _ := rig(b, n)
	cl.Register("bench_be", func(p *cluster.Proc) {
		be, err := BEInit(p)
		if err != nil {
			b.Error(err)
			return
		}
		c, mine := be.Collective(), bytes.Repeat([]byte{byte(be.Rank())}, 64)
		for {
			got, err := c.Broadcast()
			if err == nil && len(got) > 0 {
				err = c.Gather(mine)
			}
			if err != nil {
				b.Errorf("rank %d: %v", be.Rank(), err)
			}
			if err != nil || len(got) == 0 {
				break
			}
		}
		be.Finalize()
	})
	runFE(b, sim, cl, func(p *cluster.Proc) {
		sess, err := LaunchAndSpawn(p, Options{
			Job:            rm.JobSpec{Exe: "app", Nodes: n, TasksPerNode: 1},
			Daemon:         rm.DaemonSpec{Exe: "bench_be"},
			ICCLFanout:     2,
			CollChunkBytes: chunk,
		})
		if err != nil {
			b.Error(err)
			return
		}
		defer sess.Kill()
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sess.Broadcast(payload); err != nil {
				b.Error(err)
				return
			}
			if all, err := sess.Gather(); err != nil || len(all) != n {
				b.Errorf("gather %d: %d contributions, %v", i, len(all), err)
				return
			}
		}
		b.StopTimer()
		if err := sess.Broadcast(nil); err != nil {
			b.Error(err)
		}
	})
}
