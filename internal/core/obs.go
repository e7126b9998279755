package core

import (
	"errors"
	"fmt"
	"io"

	"launchmon/internal/engine"
	"launchmon/internal/obs"
)

// This file is the front-end surface of the session observability plane
// (internal/obs): the two-valued Options.Obs knob, the FE-side registry and span
// recorder, the per-fabric metrics harvest stash, and the exported
// Session.MetricsSnapshot / Session.WriteTrace accessors. The plane runs
// entirely in virtual time but charges none itself — its only wire cost is
// the harvest fold (iccl.Comm.FoldUp) riding the ready gather and the
// finalize barrier, bounded by the root's fold charges (bench.ObsDriftBound).

// ObsMode selects per-session observability: spans and instants recorded
// at the front end, per-link metrics counted at every daemon, and
// tree-harvested metric snapshots delivered with the ready message and at
// session finalize.
type ObsMode int

const (
	// ObsDefault leaves observability off — instrumented paths cost one
	// nil-check branch and no wire bytes.
	ObsDefault ObsMode = iota
	// ObsOn enables the full plane: FE recorder + registry, daemon
	// registries (planted via LMON_OBS), and the harvest folds.
	ObsOn
)

// String names the mode for diagnostics and the daemon bootstrap
// environment (LMON_OBS).
func (m ObsMode) String() string {
	if m == ObsOn {
		return "on"
	}
	return "off"
}

// enabled reports whether the mode turns the plane on.
func (m ObsMode) enabled() bool { return m == ObsOn }

// errObsDisabled is returned by observability accessors on a session
// launched without Options.Obs = ObsOn.
var errObsDisabled = errors.New("core: session observability disabled (set Options.Obs)")

// obsCounter returns the named FE-side counter (nil/no-op when obs off).
func (s *Session) obsCounter(name string) *obs.Counter { return s.obsReg.Counter(name) }

// obsGauge returns the named FE-side gauge (nil/no-op when obs off).
func (s *Session) obsGauge(name string) *obs.Gauge { return s.obsReg.Gauge(name) }

// obsInstant records a point event on the front-end track at the current
// virtual time (no-op when obs off).
func (s *Session) obsInstant(name string) {
	s.obsRec.Instant(name, s.p.Sim().Now())
}

// stashObsHarvest installs one fabric's harvested snapshot. Each harvest
// is a cumulative fold over the fabric's whole life, so a newer harvest
// replaces the previous one for the same fabric instead of merging into
// it (merging would double-count the ready-time harvest inside the
// finalize-time one); distinct fabrics (BE, MW) stay separate and are
// summed only at read time.
func (s *Session) stashObsHarvest(fabric string, blob []byte) {
	if s.obsReg == nil || len(blob) == 0 {
		return
	}
	snap, err := obs.DecodeSnapshot(blob)
	if err != nil {
		s.obsCounter("obs.harvest.decode.errors").Inc()
		return
	}
	s.obsMu.Lock()
	if s.obsHarvest == nil {
		s.obsHarvest = make(map[string]obs.Snapshot)
	}
	s.obsHarvest[fabric] = snap
	s.obsMu.Unlock()
	s.obsCounter("obs.harvests").Inc()
}

// MetricsSnapshot returns the session's merged metrics: the FE-local
// registry plus the most recent tree-harvested snapshot of each fabric
// (the iccl.Comm.FoldUp fold delivered with the ready message, refreshed at
// daemon finalize). Counters sum across daemons; gauges keep the
// fabric-wide maximum. On a session the watchdog tore down it returns the
// wrapped terminal fault instead.
func (s *Session) MetricsSnapshot() (obs.Snapshot, error) {
	if s.obsReg == nil {
		return obs.Snapshot{}, errObsDisabled
	}
	if err := s.closedErr(); err != ErrSessionClosed {
		return obs.Snapshot{}, err
	}
	snap := s.obsReg.Snapshot()
	s.obsMu.Lock()
	for _, h := range s.obsHarvest {
		snap.Merge(h)
	}
	s.obsMu.Unlock()
	return snap, nil
}

// durationMarks are duration-valued timeline entries (not timestamps);
// they make no sense as trace instants and are skipped.
var durationMarks = map[string]bool{
	engine.MarkTracing: true,
	engine.MarkFetch:   true,
}

// WriteTrace exports the session as a Chrome/Perfetto trace-event JSON
// array: the live FE spans (seed relay, collective operations), one
// synthesized span per adjacent pair of each of engine.Chains, so the
// trace shows the marks' partial order, and
// every timestamp mark of the merged Timeline as an instant event. Load
// the output in ui.perfetto.dev or chrome://tracing.
func (s *Session) WriteTrace(w io.Writer) error {
	if s.obsRec == nil {
		return errObsDisabled
	}
	rec := obs.NewRecorder(s.p.Sim().Now)
	for _, sp := range s.obsRec.Spans() {
		rec.AddSpan(sp.Name, sp.Begin, sp.Dur)
	}
	for _, in := range s.obsRec.Instants() {
		rec.Instant(in.Name, in.At)
	}
	for _, e := range s.Timeline.Entries {
		if !durationMarks[e.Name] {
			rec.Instant(e.Name, e.At)
		}
	}
	for _, chain := range engine.Chains {
		for i := 0; i+1 < len(chain); i++ {
			a, okA := s.Timeline.Get(chain[i])
			b, okB := s.Timeline.Get(chain[i+1])
			if okA && okB && b >= a {
				rec.AddSpan(chain[i]+".."+chain[i+1], a, b-a)
			}
		}
	}
	return rec.WriteChromeTrace(w, s.ID, fmt.Sprintf("lmon-session-%d", s.ID))
}
