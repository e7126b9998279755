package engine

import (
	"fmt"

	"launchmon/internal/lmonp"
	"launchmon/internal/rm"
)

// Request payload codecs for the fe-engine LMONP class.

// LaunchReq asks the engine to launch a job and co-locate daemons.
type LaunchReq struct {
	Job    rm.JobSpec
	Daemon rm.DaemonSpec
	// ChunkBytes overrides the engine's RPDTAB chunk size for this
	// session; 0 keeps the engine default.
	ChunkBytes int
}

// AttachReq asks the engine to attach to a running job and co-locate
// daemons.
type AttachReq struct {
	JobID  int
	Daemon rm.DaemonSpec
	// ChunkBytes overrides the engine's RPDTAB chunk size; 0 = default.
	ChunkBytes int
}

// SpawnReq asks the engine to allocate fresh nodes and spawn middleware
// daemons on them.
type SpawnReq struct {
	Nodes  int
	Daemon rm.DaemonSpec
}

func appendJobSpec(b []byte, s rm.JobSpec) []byte {
	b = lmonp.AppendString(b, s.Name)
	b = lmonp.AppendString(b, s.Exe)
	b = lmonp.AppendUint32(b, uint32(s.Nodes))
	b = lmonp.AppendUint32(b, uint32(s.TasksPerNode))
	return b
}

func readJobSpec(rd *lmonp.Reader) rm.JobSpec {
	return rm.JobSpec{Name: rd.String(), Exe: rd.String(), Nodes: int(rd.Uint32()), TasksPerNode: int(rd.Uint32())}
}

// EncodeLaunchReq renders a LaunchReq payload.
func EncodeLaunchReq(r LaunchReq) []byte {
	b := appendJobSpec(nil, r.Job)
	b = rm.AppendDaemonSpec(b, r.Daemon)
	return lmonp.AppendUint32(b, uint32(r.ChunkBytes))
}

// decodeLaunchReq parses a LaunchReq payload.
func decodeLaunchReq(b []byte) (LaunchReq, error) {
	rd := lmonp.NewReader(b)
	r := LaunchReq{Job: readJobSpec(rd), Daemon: rm.ReadDaemonSpec(rd)}
	var err error
	r.ChunkBytes, err = readChunkBytes(rd)
	return r, err
}

// EncodeAttachReq renders an AttachReq payload.
func EncodeAttachReq(r AttachReq) []byte {
	b := lmonp.AppendUint32(nil, uint32(r.JobID))
	b = rm.AppendDaemonSpec(b, r.Daemon)
	return lmonp.AppendUint32(b, uint32(r.ChunkBytes))
}

// decodeAttachReq parses an AttachReq payload.
func decodeAttachReq(b []byte) (AttachReq, error) {
	rd := lmonp.NewReader(b)
	r := AttachReq{JobID: int(rd.Uint32()), Daemon: rm.ReadDaemonSpec(rd)}
	var err error
	r.ChunkBytes, err = readChunkBytes(rd)
	return r, err
}

// readChunkBytes reads the trailing chunk-size override of a session
// request — the request's last field, so this is also where the decoder
// checks the Reader — rejecting values that overflow int chunk arithmetic.
func readChunkBytes(rd *lmonp.Reader) (int, error) {
	v := rd.Uint32()
	if err := rd.Err(); err != nil {
		return 0, err
	}
	if v > 1<<30 {
		return 0, fmt.Errorf("engine: chunk size %d out of range", v)
	}
	return int(v), nil
}

// EncodeSpawnReq renders a SpawnReq payload.
func EncodeSpawnReq(r SpawnReq) []byte {
	b := lmonp.AppendUint32(nil, uint32(r.Nodes))
	return rm.AppendDaemonSpec(b, r.Daemon)
}

// decodeSpawnReq parses a SpawnReq payload.
func decodeSpawnReq(b []byte) (SpawnReq, error) {
	rd := lmonp.NewReader(b)
	return SpawnReq{Nodes: int(rd.Uint32()), Daemon: rm.ReadDaemonSpec(rd)}, rd.Err()
}

// DecodeStatus parses a status payload into its message and any timeline.
func DecodeStatus(b []byte) (string, Timeline, error) {
	rd := lmonp.NewReader(b)
	msg := rd.String()
	if rd.Remaining() == 0 {
		return msg, Timeline{}, rd.Err()
	}
	enc := rd.Bytes()
	if err := rd.Err(); err != nil {
		return msg, Timeline{}, err
	}
	tl, err := DecodeTimeline(enc)
	return msg, tl, err
}
