package core

import (
	"launchmon/internal/lmonp"
)

// DaemonInfo is the per-daemon record gathered to the master during
// handshake and reported to the front end in the ready message: where each
// daemon landed, how many application tasks it watches, and its modeled
// peak private RPDTAB memory (the full table under store-forward; just the
// daemon's rank slice under cut-through — the session-shared index is
// owned once per session, not per daemon, so charging it here would
// recreate on paper the O(K x daemons) footprint slicing removes). Its
// size is linear in the daemon count, which is the Region C scaling term
// of the performance model.
type DaemonInfo struct {
	Rank      int
	Host      string
	Pid       int
	Tasks     int
	PeakBytes int
}

func encodeDaemonInfo(d DaemonInfo) []byte {
	b := lmonp.AppendUint32(nil, uint32(d.Rank))
	b = lmonp.AppendString(b, d.Host)
	b = lmonp.AppendUint32(b, uint32(d.Pid))
	b = lmonp.AppendUint32(b, uint32(d.Tasks))
	b = lmonp.AppendUint64(b, uint64(d.PeakBytes))
	return b
}

func decodeDaemonInfo(b []byte) (DaemonInfo, error) {
	rd := lmonp.NewReader(b)
	d := DaemonInfo{Rank: int(rd.Uint32()), Host: rd.String(), Pid: int(rd.Uint32()), Tasks: int(rd.Uint32()), PeakBytes: int(rd.Uint64())}
	return d, rd.Err()
}

func decodeDaemonInfos(b []byte) ([]DaemonInfo, error) {
	rd := lmonp.NewReader(b)
	// Each info travels as a length-prefixed record.
	n := rd.Count(4)
	out := make([]DaemonInfo, 0, n)
	for i := 0; i < n; i++ {
		d, err := decodeDaemonInfo(rd.Bytes())
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, rd.Err()
}
