package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
)

// Every input the program under test sees comes from here, drawn from one
// seeded generator (-seed). Sizes that feed a per-unit metric are either a
// fixed multiset handed out in seed order or jitter by a few bytes, so a
// different seed gives different inputs and slightly different virtual
// times without moving the per-unit host metrics past their bounds.

// scale holds the sizes of the four workloads; -quick divides every K and
// session count by 32.
type scale struct {
	wideK          int // launch_wide daemons (× 1 task)
	fatK, fatTasks int // launch_fat daemons × tasks per node
	loopK          int // sample_loop daemons
	workers        int // session_churn closed-loop FE workers
	perWorker      int // session_churn sessions per worker
}

func newScale(quick bool) scale {
	s := scale{wideK: 16384, fatK: 2048, fatTasks: 256, loopK: 4096, workers: 8, perWorker: 128}
	if quick {
		s.wideK, s.fatK, s.loopK, s.perWorker = s.wideK/32, s.fatK/32, s.loopK/32, s.perWorker/32
	}
	return s
}

// Sizes of the sample_loop traffic: tool A gathers 64–1023 B per rank
// behind a 64 B broadcast; tool B broadcasts 32 KiB and reduces 8 counters.
const (
	loopQueryBytes   = 64
	loopContribMin   = 64
	loopContribSpan  = 960 // contributions are 64..1023 B
	loopPayloadBytes = 32 << 10
	loopCounters     = 8
	churnMWNodes     = 4
)

// sessionShape is one session_churn session.
type sessionShape struct {
	nodes, tasks int
	attach       bool   // AttachAndSpawn to a job the set-up started (else LaunchAndSpawn)
	query        []byte // the session's broadcast payload
}

// inputs is everything one run feeds the system.
type inputs struct {
	// daemonArgs go on every tool daemon's command line. They ride each RM
	// spawn request, so their seed-drawn length moves every workload's
	// virtual time by nanoseconds — enough to tell two seeds apart, far
	// too little to matter against a bound.
	daemonArgs []string

	wideFEData []byte // launch_wide Options.FEData (a few dozen bytes)

	fatFEData []byte // launch_fat Options.FEData (~64 KiB)

	loopQuery    []byte     // tool A broadcast
	loopContrib  [][]byte   // tool A per-rank gather contribution
	loopPayload  []byte     // tool B broadcast
	loopCounters [][]uint64 // tool B per-rank reduce counters [2..8)
	loopSums     []uint64   // their expected column sums

	churn [][]sessionShape // [worker][i]
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// digest is the checker's own payload fingerprint (stdlib FNV, so a bug in
// lmonp.Sum64 cannot hide itself).
func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func generate(seed int64, sc scale) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}

	in.daemonArgs = []string{fmt.Sprintf("--token=%x", randBytes(rng, 1+rng.Intn(8)))}
	in.wideFEData = randBytes(rng, 64-rng.Intn(16))
	in.fatFEData = randBytes(rng, 64<<10-rng.Intn(16))

	in.loopQuery = randBytes(rng, loopQueryBytes-rng.Intn(16))
	in.loopPayload = randBytes(rng, loopPayloadBytes-rng.Intn(16))
	// Contribution sizes are one fixed ladder over 64..1023 B, dealt to the
	// ranks by a fixed permutation: where the big contributions sit in the
	// tree moves a gather's virtual time by several tenths of a percent, so
	// the seed draws only the bytes and a few extra bytes for one rank.
	extraRank, extra := rng.Intn(sc.loopK), 1+rng.Intn(16)
	in.loopContrib = make([][]byte, sc.loopK)
	in.loopCounters = make([][]uint64, sc.loopK)
	in.loopSums = make([]uint64, loopCounters)
	for rank := range in.loopContrib {
		slot := rank * 2039 % sc.loopK // K is a power of two, the multiplier odd: a permutation
		size := loopContribMin + slot*loopContribSpan/sc.loopK
		if rank == extraRank {
			size += extra
		}
		in.loopContrib[rank] = randBytes(rng, size)
		c := make([]uint64, loopCounters)
		for j := 2; j < loopCounters; j++ {
			c[j] = uint64(rng.Intn(1 << 20))
			in.loopSums[j] += c[j]
		}
		in.loopCounters[rank] = c
	}

	// session_churn: every worker runs the same multiset of shapes
	// (4–32 nodes × 1–16 tasks), launches and attaches shuffled separately
	// so each worker's total work is seed-independent and only the order
	// (and with it the interleaving at the RM) changes.
	in.churn = make([][]sessionShape, sc.workers)
	for w := range in.churn {
		var byParity [2][]sessionShape // [0] launched, [1] attached
		for i := 0; i < sc.perWorker; i++ {
			byParity[i%2] = append(byParity[i%2], sessionShape{nodes: 4 + (i*7)%29, tasks: 1 + (i*5)%16, attach: i%2 == 1})
		}
		for _, l := range byParity {
			l := l
			rng.Shuffle(len(l), func(a, b int) { l[a], l[b] = l[b], l[a] })
		}
		shapes := make([]sessionShape, sc.perWorker)
		for i := range shapes {
			shapes[i] = byParity[i%2][i/2]
			shapes[i].query = randBytes(rng, 48+rng.Intn(16))
		}
		in.churn[w] = shapes
	}
	return in
}

// churnNodes is the cluster size session_churn needs: the simulated
// slurmctld never frees nodes, so every session's job and MW allocation
// must fit side by side.
func (in *inputs) churnNodes() int {
	n := 0
	for _, shapes := range in.churn {
		for _, s := range shapes {
			n += s.nodes + churnMWNodes
		}
	}
	return n
}

// fingerprint digests every generated input (the determinism test compares
// it across seeds).
func (in *inputs) fingerprint() uint64 {
	h := fnv.New64a()
	put := func(b []byte) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	put([]byte(in.daemonArgs[0]))
	put(in.wideFEData)
	put(in.fatFEData)
	put(in.loopQuery)
	put(in.loopPayload)
	for rank, c := range in.loopContrib {
		put(c)
		for _, v := range in.loopCounters[rank] {
			put(binary.BigEndian.AppendUint64(nil, v))
		}
	}
	for _, shapes := range in.churn {
		for _, s := range shapes {
			put([]byte{byte(s.nodes), byte(s.tasks)})
			put(s.query)
		}
	}
	return h.Sum64()
}
