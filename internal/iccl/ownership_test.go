package iccl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// The buffer-ownership rule on the tree: a frame is encoded once and the
// same buffer travels every link below it, so what an operation returns to
// tool code has to be a copy of the tool's own — and the sharing has to
// stay cheap. One test scribbles on everything the plane returns, one
// holds the allocation of a broadcast to payload + O(frames).

// writeFrameOp encodes f and puts it on conn outside any plane — what a
// test scripting raw link traffic needs (demux_test.go) — returning the
// encoded frame size.
func writeFrameOp(conn *simnet.Conn, chunkOp, endOp uint32, f coll.Frame) (int, error) {
	msg := encodeFrameOp(chunkOp, endOp, f)
	return len(msg) - 4, lmonp.SendFrame(conn, msg)
}

// rawDigest is the end-marker digest of data's chunk stream.
func rawDigest(data []byte, chunk int) uint64 {
	frames := coll.RawFrames(coll.OpBroadcast, 0, "", data, chunk)
	return frames[len(frames)-1].Sum
}

// TestToolMayScribbleOnWhatThePlaneReturns runs every operation that
// returns data on the 13-daemon, 3-level tree of the wire pins. Each daemon
// overwrites what it was handed with its own rank byte the moment the
// operation returns — while the frames it relayed are still in flight to
// its children, and its siblings still hold the messages it was assembled
// from — and every daemon must still read the original payload, whose
// chunk stream must still fold to the sender's end-marker digest.
func TestToolMayScribbleOnWhatThePlaneReturns(t *testing.T) {
	const chunk = 64
	const tag = coll.MinUserTag + 3
	payload := make([]byte, 1000) // 16 chunks
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	want := rawDigest(payload, chunk)
	blob := func(rk int) []byte { return bytes.Repeat([]byte{byte(rk)}, 40+rk) } // allgather table: 13 chunks
	vec := func(rk int) []byte {                                                 // allreduce contribution: 16 counters, 2 chunks
		b := make([]byte, 0, 128)
		for i := 0; i < 16; i++ {
			b = binary.BigEndian.AppendUint64(b, uint64(rk*100+i))
		}
		return b
	}
	var sum []byte
	for i := 0; i < 16; i++ {
		sum = binary.BigEndian.AppendUint64(sum, uint64(100*wireN*(wireN-1)/2+wireN*i))
	}

	d := &feDriver{send: append(
		coll.RawFrames(coll.OpBroadcast, 1, "", payload, chunk),
		coll.RawFrames(coll.OpBroadcast, tag, "", payload, chunk)...)}
	planeRig(t, wireN, wireFanout, chunk, d, func(pl *Plane, c *Comm) error {
		scribble := func(b []byte) {
			for i := range b {
				b[i] = 0x80 | byte(c.Rank())
			}
		}
		checkRaw := func(op string, got []byte, err error) error {
			if err != nil {
				return err
			}
			if !bytes.Equal(got, payload) || rawDigest(got, chunk) != want {
				return fmt.Errorf("rank %d: %s delivered a payload another daemon wrote to", c.Rank(), op)
			}
			scribble(got)
			return nil
		}
		got, err := pl.Broadcast()
		if err := checkRaw("Broadcast", got, err); err != nil {
			return err
		}
		got, err = pl.BroadcastTag(tag)
		if err := checkRaw("BroadcastTag", got, err); err != nil {
			return err
		}

		mine := vec(c.Rank())
		red, err := pl.AllReduce(mine, "sum")
		if err != nil {
			return err
		}
		if !bytes.Equal(red, sum) {
			return fmt.Errorf("rank %d: AllReduce delivered %x, want %x", c.Rank(), red, sum)
		}
		scribble(red)
		scribble(mine) // the contribution is the tool's again, too

		mine = blob(c.Rank())
		all, err := pl.AllGather(mine)
		if err != nil {
			return err
		}
		for rk := range all {
			if !bytes.Equal(all[rk], blob(rk)) {
				return fmt.Errorf("rank %d: AllGather slot %d holds %x", c.Rank(), rk, all[rk])
			}
			scribble(all[rk])
		}
		scribble(mine)
		return nil
	})
}

// broadcastAllocPerDaemon runs one 32 KiB broadcast in 4 KiB chunks down an
// n-daemon tree and returns the bytes the whole process allocated for it,
// per daemon. The tree is formed and its link demuxes installed (a
// barrier) before the first reading; the readings are taken at virtual
// instants when every daemon is parked.
func broadcastAllocPerDaemon(t *testing.T, n, fanout int) (perDaemon uint64, payloadBytes int) {
	t.Helper()
	const chunk = 4 << 10
	payload := make([]byte, 32<<10)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	d := &feDriver{send: coll.RawFrames(coll.OpBroadcast, 1, "", payload, chunk)}
	sim := vtime.New()
	const opAt = 20 * time.Second
	var m0, m1 runtime.MemStats
	sim.Go("sampler", func() {
		sim.Sleep(opAt - time.Second)
		runtime.ReadMemStats(&m0)
		sim.Sleep(2 * time.Second)
		runtime.ReadMemStats(&m1)
	})
	rigOn(t, sim, n, fanout, func(c *Comm, p *cluster.Proc) error {
		pl := d.plane(c, chunk, 0)
		if err := warmUp(c); err != nil {
			return err
		}
		if sim.Now() >= opAt-time.Second {
			return fmt.Errorf("rank %d left the warm-up barrier at %v, after the first reading", c.Rank(), sim.Now())
		}
		sim.Sleep(opAt - sim.Now())
		got, err := pl.Broadcast()
		if err == nil && !bytes.Equal(got, payload) {
			err = fmt.Errorf("rank %d: broadcast delivered another payload", c.Rank())
		}
		if err == nil && sim.Now() >= opAt+time.Second {
			err = fmt.Errorf("rank %d finished the broadcast at %v, after the second reading", c.Rank(), sim.Now())
		}
		return err
	})
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(n), len(payload)
}

// TestBroadcastAllocationIsPayloadPlusFrames is the allocation guard of the
// zero-copy relay: a daemon pays for the payload it hands the tool plus
// the messages it sends and a handful of records per operation — not for
// one encoding per child link, so the cost does not grow with the fanout,
// and not for a closure and a parker per frame (1.14 x and 1.05 x measured). (Before the relay forwarded
// the message it received, this was ≈ 8 × the payload at fanout 16.)
func TestBroadcastAllocationIsPayloadPlusFrames(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the test's behalf")
	}
	for _, tc := range []struct{ n, fanout int }{
		{wireN, wireFanout}, // 3 levels of fanout 3
		{273, 16},           // 3 levels of fanout 16
	} {
		per, payload := broadcastAllocPerDaemon(t, tc.n, tc.fanout)
		t.Logf("fanout %d, %d daemons: %d B allocated per daemon for a %d B broadcast (%.2f x)",
			tc.fanout, tc.n, per, payload, float64(per)/float64(payload))
		if per > uint64(payload)*5/4 {
			t.Errorf("fanout %d: %d B allocated per daemon for a %d B broadcast, want at most 1.25 x the payload",
				tc.fanout, per, payload)
		}
	}
}
