package rm_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/lmonp"
	"launchmon/internal/rm"
	"launchmon/internal/rm/alps"
	"launchmon/internal/rm/slurm"
	"launchmon/internal/rsh"
	"launchmon/internal/simnet"
	"launchmon/internal/vtime"
)

// field is one encoded field of a request; counted marks a field that
// starts with a 32-bit length or count prefix.
type field struct {
	enc     []byte
	counted bool
}

func u32(v uint32) field          { return field{lmonp.AppendUint32(nil, v), false} }
func str(s string) field          { return field{lmonp.AppendString(nil, s), true} }
func list(ss ...string) field     { return field{lmonp.AppendStringList(nil, ss), true} }
func pairs(kv ...[2]string) field { return field{lmonp.AppendStringMap(nil, kv), true} }

func join(fields []field) []byte {
	var b []byte
	for _, f := range fields {
		b = append(b, f.enc...)
	}
	return b
}

type corruption struct {
	name string
	req  []byte
}

// corruptions returns the request cut short at every field boundary and,
// for every counted field, with that field's prefix reading 1000 too many.
func corruptions(fields []field) []corruption {
	var out []corruption
	for i, f := range fields {
		out = append(out, corruption{fmt.Sprintf("truncated before field %d", i), join(fields[:i])})
		if f.counted {
			long := append([]field(nil), fields...)
			n := lmonp.NewReader(f.enc).Uint32()
			long[i] = field{enc: append(lmonp.AppendUint32(nil, n+1000), f.enc[4:]...)}
			out = append(out, corruption{fmt.Sprintf("prefix of field %d 1000 too long", i), join(long)})
		}
	}
	return out
}

// TestCorruptRequestsAreRefused sends every server below the engine its
// own request in every corruption — each must be answered with an error
// reply and must start no process — and then well-formed: it must be
// served (the layouts here are the servers'; the allocator can only serve
// it if no corruption was granted node0). A decoder that checks only the
// last field's error takes a request whose exe prefix overruns the payload
// for exe "", no args, no env, node list "node0" — and forks. A slurmd
// spawn is sent for a running job (job 1, on node0) that the well-formed
// request has been served for once already, so every corruption meets the
// job's spawn layer.
func TestCorruptRequestsAreRefused(t *testing.T) {
	env := pairs([2]string{"A", "1"}, [2]string{"B", "2"})
	for _, srv := range []struct {
		name   string
		port   int
		onNode bool // served on node0, else on the front end
		job    bool // sent for job 1, running on node0, after the request itself
		req    []field
	}{
		// op, self, jobid, tasksPerNode, exe, nodelist
		{"slurmd launch", slurm.SlurmdPort, true, false, []field{u32(10), u32(0), u32(7), u32(1), str("app"), str("node0")}},
		// op, self, jobid, exe, args, env, nodelist
		{"slurmd spawn", slurm.SlurmdPort, true, true, []field{u32(11), u32(0), u32(1), str("daemon"), list("-v"), env, str("node0")}},
		// op, self, jobid, nodelist
		{"slurmd kill", slurm.SlurmdPort, true, false, []field{u32(12), u32(0), u32(7), str("node0")}},
		// op, n, exclude
		{"slurmctld alloc", slurm.CtrlPort, false, false, []field{u32(1), u32(1), list("node1")}},
		// op, jobid, baseRank, count, exe
		{"apinit launch", alps.ApinitPort, true, false, []field{u32(1), u32(7), u32(0), u32(1), str("app")}},
		// op, jobid, exe, args, env
		{"apinit spawn", alps.ApinitPort, true, false, []field{u32(2), u32(7), str("daemon"), list("-v"), env}},
		// op, jobid
		{"apinit kill", alps.ApinitPort, true, false, []field{u32(3), u32(7)}},
		// exe, args, env
		{"sshd", rsh.Port, true, false, []field{str("daemon"), list("-v"), env}},
	} {
		srv := srv
		t.Run(srv.name, func(t *testing.T) {
			sim := vtime.New()
			cl, err := cluster.New(sim, cluster.Options{Nodes: 2})
			if err != nil {
				t.Fatal(err)
			}
			m, err := slurm.Install(cl, slurm.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := alps.Install(cl); err != nil {
				t.Fatal(err)
			}
			if _, err := rsh.Install(cl); err != nil {
				t.Fatal(err)
			}
			cl.Register("daemon", func(*cluster.Proc) {})
			node := cl.Node(0)
			addr := simnet.Addr{Host: cl.FrontEnd().Name(), Port: srv.port}
			if srv.onNode {
				addr.Host = node.Name()
			}
			sim.Go("client", func() {
				sim.Sleep(time.Millisecond) // the servers are listening
				from := cl.FrontEnd().Host()
				if srv.job {
					if _, err := m.StartJob(rm.JobSpec{Exe: "app", Nodes: 1, TasksPerNode: 1}); err != nil {
						t.Error(err)
						return
					}
					sim.Sleep(time.Second) // launched
					if _, err := rm.Call(from, addr, join(srv.req)); err != nil {
						t.Errorf("the well-formed request was refused: %v", err)
						return
					}
				}
				for _, c := range corruptions(srv.req) {
					before := node.NumProcs()
					_, err := rm.Call(from, addr, c.req)
					var refused rm.RemoteError
					if !errors.As(err, &refused) {
						t.Errorf("%s: answered %v, want an error reply", c.name, err)
					}
					if after := node.NumProcs(); after != before {
						t.Errorf("%s: started %d processes", c.name, after-before)
					}
				}
				if _, err := rm.Call(from, addr, join(srv.req)); err != nil {
					t.Errorf("the well-formed request was refused: %v", err)
				}
			})
			sim.Run()
		})
	}
}

// TestCorruptChildReplyFailsTheLaunch: a slurmd merges its children's
// tables as bytes, so a child's reply is checked where it is merged. A fake
// child — a server on the front end, which has no slurmd, named second in
// the node list — answers node0's forward with a table that does not scan;
// the launch must fail with the words the decoder has for it (the same ones
// decoding the reply into a Table, as slurmd did before, failed with).
func TestCorruptChildReplyFailsTheLaunch(t *testing.T) {
	entry := func(host, exe, pid, rank uint32) []byte {
		return join([]field{u32(host), u32(exe), u32(pid), u32(rank)})
	}
	table := func(entries uint32, body ...[]byte) []byte {
		b := join([]field{list("fe0", "app"), u32(entries)})
		for _, e := range body {
			b = append(b, e...)
		}
		return b
	}
	for _, tc := range []struct {
		name, want string
		table      []byte
	}{
		{"pool index out of range", "proctab: entry 1: pool index out of range",
			table(2, entry(0, 1, 100, 1), entry(0, 2, 101, 2))},
		{"truncated entry", "proctab: pool and count: lmonp: truncated field: list of 32 bytes, 25 remain",
			table(2, entry(0, 1, 100, 1), entry(0, 1, 101, 2)[:9])},
		{"pid overflows", "proctab: entry 0: pid 4294967295 overflows",
			table(1, entry(0, 1, 0xffffffff, 1))},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sim := vtime.New()
			cl, err := cluster.New(sim, cluster.Options{Nodes: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := slurm.Install(cl, slurm.Config{}); err != nil {
				t.Fatal(err)
			}
			fe := cl.FrontEnd()
			if _, err := fe.SpawnSystemProc(cluster.Spec{Exe: "evil-slurmd", Main: func(p *cluster.Proc) {
				rm.Serve(p, slurm.SlurmdPort, func(_ *lmonp.Reader, reply rm.Reply) {
					reply(lmonp.AppendBytes(nil, tc.table), nil)
				})
			}}); err != nil {
				t.Fatal(err)
			}
			sim.Go("client", func() {
				sim.Sleep(time.Millisecond) // the servers are listening
				// op, self, jobid, tasksPerNode, exe, nodelist
				req := join([]field{u32(10), u32(0), u32(7), u32(1), str("app"), str("node0,fe0")})
				_, err := rm.Call(fe.Host(), simnet.Addr{Host: "node0", Port: slurm.SlurmdPort}, req)
				var refused rm.RemoteError
				if !errors.As(err, &refused) || string(refused) != tc.want {
					t.Errorf("launch answered %q, want the error reply %q", err, tc.want)
				}
			})
			sim.Run()
		})
	}
}
