package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"launchmon/internal/cluster"
	"launchmon/internal/iccl"
	"launchmon/internal/lmonp"
	"launchmon/internal/proctab"
	"launchmon/internal/rm"
	"launchmon/internal/transport"
	"launchmon/internal/vtime"
)

// askCell is one cell of TestMasterAskEndsTheRecord: a 7-daemon tree of
// fanout 2 (0 → 1, 2; 1 → 3, 4; 2 → 5, 6) in one seed mode, stalled in one
// phase, whose master's front end asks it whom it waits on, or whose link to
// it ends.
type askCell struct {
	mode  SeedMode
	stall string // "forming": rank 3 is withheld; "seed": the front end withholds the seed's End; "gather": rank 3 forms and stops
	close bool   // the front end closes its link instead of asking
	want  string // what the master's error names: the rank, its phase and whom it waits on
}

// TestMasterAskEndsTheRecord holds the master's one path for the front end's
// ask and its link's end: a scripted front end takes the master's handshake,
// streams it the seed, and a second later asks, or closes the link, while the
// tree forms with one child withheld, while the root waits for its seed share
// (cut-through), or during the ready gather. Whatever the phase, the master's
// record ends at once, its error names rank 0, the phase and whom it waits on
// — the front end reads it in the master's status frame after an ask — and
// once every daemon is killed no goroutine is left.
func TestMasterAskEndsTheRecord(t *testing.T) {
	const waits = "waiting on rank 1, 3, 4 (3 of 7 ranks)"
	var cells []askCell
	for _, mode := range []SeedMode{SeedCutThrough, SeedStoreForward} {
		for _, close := range []bool{false, true} {
			cells = append(cells,
				askCell{mode, "forming", close, "iccl: bootstrap failed: iccl: ready at rank 0: %s; " + waits},
				askCell{mode, "gather", close, "iccl: gather at rank 0: %s; " + waits})
			if mode == SeedCutThrough {
				cells = append(cells, askCell{mode, "seed", close, "iccl: seed at rank 0: %s; waiting on its share of the seed"})
			}
		}
	}
	for _, c := range cells {
		c := c
		how := "ask"
		if c.close {
			how = "link end"
		}
		t.Run(fmt.Sprintf("%v/%s/%s", c.mode, c.stall, how), func(t *testing.T) { runAskCell(t, c) })
	}
}

func runAskCell(t *testing.T, c askCell) {
	const k, fanout, port, session = 7, 2, 52100, 1 << 20 // a session no front end of the process numbers
	defer dropSharedSeg(session)
	sim := vtime.New()
	cl, err := cluster.New(sim, cluster.Options{Nodes: k})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]string, k)
	var tab proctab.Table
	for i := range nodes {
		nodes[i] = cl.Node(i).Name()
		tab = append(tab, proctab.ProcDesc{Host: nodes[i], Exe: "app", Pid: 100, Rank: i})
	}
	var masterErr error
	runFE(t, sim, cl, func(p *cluster.Proc) {
		live := sim.Live()
		mux, err := transport.ListenMux(sim, p.Host())
		if err != nil {
			t.Error(err)
			return
		}
		defer mux.Close()
		ep, err := mux.Open(session)
		if err != nil {
			t.Error(err)
			return
		}
		env := bootEnv{feAddr: mux.Addr().String(), session: session, tree: iccl.Config{Port: port, Fanout: fanout}, seedMode: c.mode}.plant(nil, beFabric)
		env[rm.EnvNNodes], env[rm.EnvNodeList] = strconv.Itoa(k), strings.Join(nodes, ",")
		var procs []*cluster.Proc
		for i := range nodes {
			i := i
			if i == 3 && c.stall == "forming" {
				continue
			}
			spec := cluster.Spec{Exe: "ask_be", Env: map[string]string{rm.EnvNodeID: strconv.Itoa(i)}, EnvBase: env, Main: func(p *cluster.Proc) {
				if i == 3 && c.stall == "gather" { // joins, sends its ready, then reads and sends nothing
					if _, err := iccl.Bootstrap(p, iccl.Config{Rank: i, Size: k, Fanout: fanout, Nodelist: nodes, Port: port}); err == nil {
						p.Wait()
					}
					return
				}
				if _, err := initDaemon(p, &beFabric); i == 0 {
					masterErr = err
				}
			}}
			proc, err := cl.Node(i).SpawnProc(spec)
			if err != nil {
				t.Error(err)
				return
			}
			procs = append(procs, proc)
		}
		conn, err := ep.Accept(transport.RoleBE, time.Second)
		if err != nil {
			t.Error(err)
			return
		}
		if err := conn.Send(&lmonp.Msg{Class: lmonp.ClassFEBE, Type: lmonp.TypeHandshake, UsrData: []byte("fedata")}); err != nil {
			t.Error(err)
			return
		}
		w, end := proctab.StreamTo(conn, lmonp.ClassFEBE, 64)
		if err := w.AddTable(tab); err == nil && c.stall == "seed" {
			err = w.Flush()
		} else if err == nil {
			err = end()
		}
		if err != nil {
			t.Error(err)
			return
		}
		sim.Sleep(time.Second)
		asked := sim.Now()
		if c.close {
			conn.Close()
		} else if err := conn.Send(&lmonp.Msg{Class: lmonp.ClassFEBE, Type: lmonp.TypeStatus}); err != nil {
			t.Error(err)
			return
		}
		cause := "EOF" // what the master reads on its link
		if !c.close {
			cause = "ended by the front end"
			msg, err := conn.Recv()
			if err != nil || msg.Type != lmonp.TypeStatus {
				t.Errorf("the front end's ask was answered with %v, %v; want the master's status", msg, err)
				return
			}
			answer := lmonp.NewReader(msg.Payload).String()
			if want := fmt.Sprintf(c.want, cause); answer != want {
				t.Errorf("the master answered %q, want %q", answer, want)
			}
			if lag := sim.Now() - asked; lag > readyGrace {
				t.Errorf("the master answered %v after the ask, want within readyGrace (%v)", lag, readyGrace)
			}
		}
		sim.Sleep(time.Second)
		if masterErr == nil {
			t.Errorf("the master's init returned no error a second after the ask or the link's end")
		} else if want := fmt.Sprintf(c.want, cause); masterErr.Error() != want {
			t.Errorf("the master's init failed with %q, want %q", masterErr, want)
		}
		for _, proc := range procs {
			proc.Kill()
		}
		conn.Close()
		sim.Sleep(31 * time.Second)
		if got := sim.Live(); got != live {
			t.Errorf("Live() = %d once every daemon was killed, %d before any was spawned", got, live)
		}
	})
}
