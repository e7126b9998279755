package health

import (
	"fmt"

	"launchmon/internal/lmonp"
)

// EventKind classifies session status events, mirroring the state
// transitions real LaunchMON reports through lmon_fe_regStatusCB.
type EventKind uint32

// Session status-event kinds.
const (
	// EvDaemonsSpawned: the session's daemons are up and the session is
	// usable (fires once, right after launch/attach completes).
	EvDaemonsSpawned EventKind = iota + 1
	// EvJobExited: the target job's launcher exited; Code holds its exit
	// status.
	EvJobExited
	// EvDaemonExited: a back-end daemon (or its node) was lost; Rank names
	// it.
	EvDaemonExited
	// EvSessionTornDown: the session finished tearing down (detach, kill
	// or watchdog); no further events follow.
	EvSessionTornDown
)

// String names the kind for diagnostics.
func (k EventKind) String() string {
	switch k {
	case EvDaemonsSpawned:
		return "daemons-spawned"
	case EvJobExited:
		return "job-exited"
	case EvDaemonExited:
		return "daemon-exited"
	case EvSessionTornDown:
		return "session-torn-down"
	default:
		return fmt.Sprintf("event(%d)", uint32(k))
	}
}

// Event is one session status transition, delivered to registered
// front-end callbacks and carried between components as LMONP
// TypeStatusEvent messages.
type Event struct {
	Kind   EventKind
	Rank   int    // EvDaemonExited: lost daemon's rank; -1 otherwise
	Code   int    // EvJobExited: launcher exit code
	Detail string // human-readable cause
}

// EncodeEvent renders the LMONP status-event payload.
func EncodeEvent(e Event) []byte {
	b := lmonp.AppendUint32(nil, uint32(e.Kind))
	b = lmonp.AppendUint32(b, uint32(int32(e.Rank)))
	b = lmonp.AppendUint32(b, uint32(int32(e.Code)))
	return lmonp.AppendString(b, e.Detail)
}

// DecodeEvent parses a status-event payload.
func DecodeEvent(b []byte) (Event, error) {
	rd := lmonp.NewReader(b)
	e := Event{Kind: EventKind(rd.Uint32()), Rank: int(int32(rd.Uint32())), Code: int(int32(rd.Uint32())), Detail: rd.String()}
	return e, rd.Err()
}
