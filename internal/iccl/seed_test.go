package iccl

import (
	"bytes"
	"fmt"
	"testing"

	"launchmon/internal/cluster"
	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
	"launchmon/internal/vtime"
)

// seedRig bootstraps n daemons with BootstrapSeedRouted: the root feeds the
// scripted frame bodies, every daemon drains its local stream and then
// runs fn on the fully formed communicator.
func seedRig(t *testing.T, n, fanout int, bodies [][]byte, fn func(c *Comm, got [][]byte, p *cluster.Proc) error) {
	t.Helper()
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	nodelist := make([]string, n)
	for i := range nodelist {
		nodelist[i] = cl.Node(i).Name()
	}
	errs := make([]error, n)
	sim.Go("boot", func() {
		for i := 0; i < n; i++ {
			i := i
			if _, err := cl.Node(i).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
				var src SeedSource
				if i == 0 {
					// The stream digest covers the chunk frames (from index
					// 1); frame 0 is the FEData preamble.
					digest := lmonp.SumInit
					for _, b := range bodies[1:] {
						digest = lmonp.FoldSum(digest, lmonp.Sum64(b))
					}
					idx := 0
					src = func() (coll.Frame, error) {
						if idx < len(bodies) {
							f := coll.Frame{
								H:    coll.Header{Op: coll.OpSeed, Index: uint32(idx)},
								Body: bodies[idx],
								Sum:  lmonp.Sum64(bodies[idx]),
							}
							idx++
							return f, nil
						}
						return coll.Frame{
							H:     coll.Header{Op: coll.OpSeed, Index: uint32(idx)},
							End:   true,
							Total: uint64(len(bodies)),
							Sum:   digest,
						}, nil
					}
				}
				c, seed, err := BootstrapSeedRouted(p, Config{
					Rank: i, Size: n, Fanout: fanout, Nodelist: nodelist, Port: 50002,
				}, src, nil)
				if err != nil {
					errs[i] = err
					return
				}
				defer c.Close()
				var got [][]byte
				for {
					f, err := seed.Next()
					if err != nil {
						errs[i] = err
						return
					}
					if f.End {
						if f.Total != uint64(len(got)) {
							errs[i] = fmt.Errorf("end total %d, received %d frames", f.Total, len(got))
							return
						}
						break
					}
					got = append(got, append([]byte(nil), f.Body...))
				}
				if err := seed.Wait(); err != nil {
					errs[i] = err
					return
				}
				errs[i] = fn(c, got, p)
			}}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	sim.Run()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("daemon %d: %v", i, err)
		}
	}
}

// TestSeedStreamDeliversEverywhere checks every rank receives the exact
// frame sequence across tree shapes, and that the communicator is fully
// usable afterwards (the seed must have drained off every link).
func TestSeedStreamDeliversEverywhere(t *testing.T) {
	bodies := [][]byte{[]byte("fedata"), []byte("chunk-0"), []byte("chunk-1"), {}, []byte("chunk-3")}
	for _, tc := range []struct{ n, fanout int }{
		{1, 2}, {2, 2}, {5, 4}, {7, 2}, {8, 0 /* flat */}, {13, 3},
	} {
		t.Run(fmt.Sprintf("n%d_f%d", tc.n, tc.fanout), func(t *testing.T) {
			seedRig(t, tc.n, tc.fanout, bodies, func(c *Comm, got [][]byte, p *cluster.Proc) error {
				if len(got) != len(bodies) {
					return fmt.Errorf("rank %d received %d frames, want %d", c.Rank(), len(got), len(bodies))
				}
				for i := range bodies {
					if !bytes.Equal(got[i], bodies[i]) {
						return fmt.Errorf("rank %d frame %d = %q, want %q", c.Rank(), i, got[i], bodies[i])
					}
				}
				// The tree is immediately usable for collectives.
				return c.Barrier()
			})
		})
	}
}

// TestSeedSourceOnlyAtRoot pins the configuration contract.
func TestSeedSourceOnlyAtRoot(t *testing.T) {
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim.Go("boot", func() {
		cl.Node(0).SpawnProc(cluster.Spec{Exe: "d", Main: func(p *cluster.Proc) {
			if _, _, err := BootstrapSeedRouted(p, Config{
				Rank: 0, Size: 1, Nodelist: []string{cl.Node(0).Name()}, Port: 50003,
			}, nil, nil); err == nil {
				t.Error("rank 0 without a seed source accepted")
			}
			if _, _, err := BootstrapSeedRouted(p, Config{
				Rank: 1, Size: 2, Nodelist: []string{cl.Node(0).Name(), "x"}, Port: 50003,
			}, func() (coll.Frame, error) { return coll.Frame{}, nil }, nil); err == nil {
				t.Error("rank 1 with a seed source accepted")
			}
		}})
	})
	sim.Run()
}
