package engine

import (
	"fmt"
	"sort"
	"time"

	"launchmon/internal/lmonp"
)

// The critical-path events of launchAndSpawn (paper §4, Figure 2). Marks
// record the virtual time each event occurred; the perfmodel package turns
// mark differences into the Region A/B/C component breakdown of Figure 3.
// They are partially ordered: Chains below lists what is monotone.
const (
	MarkE0  = "e0_fe_call"         // client calls the FE API
	MarkE1  = "e1_engine_start"    // LaunchMON engine invoked
	MarkE2  = "e2_launcher_exec"   // RM job launcher started under trace
	MarkE3  = "e3_breakpoint"      // launcher stopped at MPIR_Breakpoint
	MarkE4  = "e4_rpdtab_fetched"  // engine finished fetching the RPDTAB
	MarkE5  = "e5_spawn_req"       // daemon launch command issued to the RM
	MarkE6  = "e6_spawn_done"      // RM finished spawning tool daemons
	MarkE7  = "e7_handshake_start" // FE began handshake with master daemon
	MarkE8  = "e8_netsetup_start"  // master daemon began ICCL fabric setup
	MarkE9  = "e9_netsetup_done"   // inter-daemon network established
	MarkE10 = "e10_ready"          // FE received the master's ready message
	MarkE11 = "e11_return"         // FE API returned to the client
)

// Derived duration marks (not timestamps).
const (
	MarkTracing = "tracing_cost" // accumulated engine event-handler time
	MarkFetch   = "rpdtab_fetch" // symbolic read duration (Region B)
)

// Overlap marks of the cut-through launch pipeline (timestamps). They
// instrument the phases the pipeline overlaps: the FE relays RPDTAB
// chunks toward the master while still draining the engine stream, and
// every daemon validates its reassembled table before contributing to
// the ready gather.
const (
	MarkSeedFwd   = "seed_first_forward" // FE relayed the first RPDTAB chunk to the master
	MarkSeedValid = "seed_validated"     // daemon-side assembler validated the reassembled RPDTAB
)

// Middleware marks (timestamps): LaunchMW distributes the same session
// seed over the MW fabric after e11, and its events are the back-end
// fabric's from e6 on under an m prefix.
const (
	MarkMW6         = "m6_mw_spawn_done"      // FE received the RM's answer to the MW spawn request
	markMW7         = "m7_mw_handshake_start" // FE accepted the MW master's dial, handshake begins
	markMW8         = "m8_mw_netsetup_start"  // MW master consumed the handshake, starts ICCL fabric setup
	markMW9         = "m9_mw_netsetup_done"   // MW tree fully connected
	markMW10        = "m10_mw_ready"          // FE received the MW master's ready message
	MarkMWSeedFwd   = "mw_seed_first_forward" // FE relayed the first seed chunk to the MW master
	MarkMWSeedValid = "mw_seed_validated"     // MW-daemon assembler validated the reassembled RPDTAB
)

// FabricMarks is one daemon fabric's set of marks: the RM's answer to its
// spawn request, from which the front end bounds the master's connect and
// ready, its handshake chain, and its seed stream's two.
type FabricMarks struct {
	SpawnDone, Accept, NetStart, NetDone, Ready string
	SeedFwd, SeedValid                          string
}

// The back-end and middleware fabrics' mark sets.
var (
	BEMarks = FabricMarks{MarkE6, MarkE7, MarkE8, MarkE9, MarkE10, MarkSeedFwd, MarkSeedValid}
	MWMarks = FabricMarks{MarkMW6, markMW7, markMW8, markMW9, markMW10, MarkMWSeedFwd, MarkMWSeedValid}
)

// The chains of the marks' partial order: each is monotone on every
// launch, and nothing orders two marks that share no chain. The
// store-and-forward pipeline (the paper's serialized Figure 2) also keeps
// e6≤e7, but under cut-through, the default, the master dials, takes the
// handshake and forms the tree while the RM still spawns its siblings, so
// e7–e10 may precede e6. The MW chain starts after e11.
var (
	EngineChain    = []string{MarkE0, MarkE1, MarkE2, MarkE3, MarkE4, MarkE5, MarkE6, MarkE11}
	HandshakeChain = []string{MarkE5, MarkE7, MarkE8, MarkE9, MarkE10, MarkE11}
	MWChain        = []string{markMW7, markMW8, markMW9, markMW10}
	Chains         = [][]string{EngineChain, HandshakeChain, MWChain}
)

// CheckChains reports the first mark of chains that is missing or that
// precedes its predecessor in its chain, naming both.
func (t *Timeline) CheckChains(chains ...[]string) error {
	for _, chain := range chains {
		for i, name := range chain {
			at, ok := t.Get(name)
			if !ok {
				return fmt.Errorf("timeline missing mark %s", name)
			}
			if prev, _ := t.Get(chain[max(i-1, 0)]); at < prev {
				return fmt.Errorf("mark %s at %v precedes %s at %v", name, at, chain[i-1], prev)
			}
		}
	}
	return nil
}

// MarkEntry is one named timestamp or duration on a Timeline.
type MarkEntry struct {
	Name string
	At   time.Duration
}

// Timeline is an append-only list of named virtual-time marks collected
// across LaunchMON's components. It is intentionally a plain value: the
// engine encodes its marks into LMONP status payloads and the front end
// merges them with its own.
type Timeline struct {
	Entries []MarkEntry
}

// Mark appends a named timestamp.
func (t *Timeline) Mark(name string, at time.Duration) {
	t.Entries = append(t.Entries, MarkEntry{Name: name, At: at})
}

// Get returns the first mark with the given name.
func (t *Timeline) Get(name string) (time.Duration, bool) {
	for _, e := range t.Entries {
		if e.Name == name {
			return e.At, true
		}
	}
	return 0, false
}

// Between returns the duration between two marks (0 when either is absent).
func (t *Timeline) Between(from, to string) time.Duration {
	a, okA := t.Get(from)
	b, okB := t.Get(to)
	if !okA || !okB || b < a {
		return 0
	}
	return b - a
}

// Merge folds in all entries of other and re-sorts the merged list by
// (time, name). The sort makes the merged order a pure function of the
// mark set: BE and MW fabrics report their chains concurrently, and
// without it the merged order depended on which watcher ran first —
// nondeterministic output from deterministic virtual-time inputs.
func (t *Timeline) Merge(other Timeline) {
	t.Entries = append(t.Entries, other.Entries...)
	sort.SliceStable(t.Entries, func(i, j int) bool {
		if t.Entries[i].At != t.Entries[j].At {
			return t.Entries[i].At < t.Entries[j].At
		}
		return t.Entries[i].Name < t.Entries[j].Name
	})
}

// Encode renders the timeline for an LMONP payload.
func (t Timeline) Encode() []byte {
	b := lmonp.AppendUint32(nil, uint32(len(t.Entries)))
	for _, e := range t.Entries {
		b = lmonp.AppendString(b, e.Name)
		b = lmonp.AppendUint64(b, uint64(e.At))
	}
	return b
}

// DecodeTimeline parses an encoded timeline.
func DecodeTimeline(b []byte) (Timeline, error) {
	var t Timeline
	rd := lmonp.NewReader(b)
	// Each entry is a length-prefixed name and a 64-bit instant.
	for i, n := 0, rd.Count(12); i < n; i++ {
		t.Entries = append(t.Entries, MarkEntry{Name: rd.String(), At: time.Duration(rd.Uint64())})
	}
	return t, rd.Err()
}
