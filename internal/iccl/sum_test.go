package iccl

import (
	"fmt"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
	"launchmon/internal/vtime"
)

// TestChunkSumsOnTreeLinks pins the receive contract of chunk sums: the
// tree wire carries only the End frame's digest, so a collective chunk
// parsed off a link has no sum — no Plane operation checks one — and the
// seed stream, the one stream a receiver checks, computes every chunk's
// sum as it arrives.
func TestChunkSumsOnTreeLinks(t *testing.T) {
	// Rank 1 sends a producer-summed stream on a tag rank 0 runs no
	// operation for, and rank 0 reads it out of its backlog as the link
	// demux parsed it.
	t.Run("collective", func(t *testing.T) {
		const tag = coll.MinUserTag + 9
		frames := coll.RawFrames(coll.OpBroadcast, tag, "", []byte("a stream of three chunks"), 10)
		var got []coll.Frame
		rigOn(t, vtime.New(), 2, 2, func(c *Comm, p *cluster.Proc) error {
			if err := warmUp(c); err != nil {
				return err
			}
			switch c.Rank() {
			case 0:
				p.Sim().Sleep(time.Second)
				d := c.demux(0)
				d.mu.Lock()
				if s := d.find(tag); s != nil {
					got = append(got, s.q[s.head:]...)
				}
				d.mu.Unlock()
			case 1:
				for _, f := range frames {
					if _, err := writeFrameOp(c.parent, opCollChunk, opCollEnd, f); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if len(got) != len(frames) {
			t.Fatalf("rank 0's backlog holds %d frames, rank 1 sent %d", len(got), len(frames))
		}
		for i, f := range got {
			want := uint64(0)
			if f.End {
				want = frames[i].Sum
			}
			if f.Sum != want {
				t.Errorf("frame %d (end %v) arrived with sum %#x, want %#x", i, f.End, f.Sum, want)
			}
		}
	})
	// Every rank of a 3-level tree: the FEData frame a sink is handed is
	// the one SeqCheck.AdmitFrame admitted, sum computed on arrival, and
	// every chunk of the rank's slice (each longer than one 32-byte block)
	// and the End carry the sums its stream would be checked with.
	t.Run("seed", func(t *testing.T) {
		frames, rt, _ := routedSeed(wireN, 4, 96)
		seedRig(t, seedCluster(t, vtime.New(), wireN), wireFanout, frames, rt, func(c *Comm, got []coll.Frame) error {
			digest := lmonp.SumInit
			for _, f := range got {
				want := lmonp.Sum64(f.Body)
				switch {
				case f.End:
					want = digest
				case f.H.Index > 0:
					digest = lmonp.FoldSum(digest, want)
				}
				if f.Sum != want {
					return fmt.Errorf("rank %d: seed frame %d (end %v) has sum %#x, want %#x", c.Rank(), f.H.Index, f.End, f.Sum, want)
				}
			}
			return nil
		})
	})
}
