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

func readJobSpec(rd *lmonp.Reader) (rm.JobSpec, error) {
	var s rm.JobSpec
	var err error
	if s.Name, err = rd.String(); err != nil {
		return s, err
	}
	if s.Exe, err = rd.String(); err != nil {
		return s, err
	}
	n, err := rd.Uint32()
	if err != nil {
		return s, err
	}
	t, err := rd.Uint32()
	if err != nil {
		return s, err
	}
	s.Nodes, s.TasksPerNode = int(n), int(t)
	return s, nil
}

func appendDaemonSpec(b []byte, s rm.DaemonSpec) []byte {
	b = lmonp.AppendString(b, s.Exe)
	b = lmonp.AppendStringList(b, s.Args)
	kv := make([][2]string, 0, len(s.Env))
	for k, v := range s.Env {
		kv = append(kv, [2]string{k, v})
	}
	// Deterministic order.
	for i := 1; i < len(kv); i++ {
		for j := i; j > 0 && kv[j][0] < kv[j-1][0]; j-- {
			kv[j], kv[j-1] = kv[j-1], kv[j]
		}
	}
	return lmonp.AppendStringMap(b, kv)
}

func readDaemonSpec(rd *lmonp.Reader) (rm.DaemonSpec, error) {
	var s rm.DaemonSpec
	var err error
	if s.Exe, err = rd.String(); err != nil {
		return s, err
	}
	if s.Args, err = rd.StringList(); err != nil {
		return s, err
	}
	kv, err := rd.StringMap()
	if err != nil {
		return s, err
	}
	s.Env = make(map[string]string, len(kv))
	for _, e := range kv {
		s.Env[e[0]] = e[1]
	}
	return s, nil
}

// EncodeLaunchReq renders a LaunchReq payload.
func EncodeLaunchReq(r LaunchReq) []byte {
	b := appendJobSpec(nil, r.Job)
	b = appendDaemonSpec(b, r.Daemon)
	return lmonp.AppendUint32(b, uint32(r.ChunkBytes))
}

// DecodeLaunchReq parses a LaunchReq payload.
func DecodeLaunchReq(b []byte) (LaunchReq, error) {
	rd := lmonp.NewReader(b)
	var r LaunchReq
	var err error
	if r.Job, err = readJobSpec(rd); err != nil {
		return r, err
	}
	if r.Daemon, err = readDaemonSpec(rd); err != nil {
		return r, err
	}
	if r.ChunkBytes, err = readChunkBytes(rd); err != nil {
		return r, err
	}
	return r, nil
}

// EncodeAttachReq renders an AttachReq payload.
func EncodeAttachReq(r AttachReq) []byte {
	b := lmonp.AppendUint32(nil, uint32(r.JobID))
	b = appendDaemonSpec(b, r.Daemon)
	return lmonp.AppendUint32(b, uint32(r.ChunkBytes))
}

// DecodeAttachReq parses an AttachReq payload.
func DecodeAttachReq(b []byte) (AttachReq, error) {
	rd := lmonp.NewReader(b)
	var r AttachReq
	id, err := rd.Uint32()
	if err != nil {
		return r, err
	}
	r.JobID = int(id)
	if r.Daemon, err = readDaemonSpec(rd); err != nil {
		return r, err
	}
	if r.ChunkBytes, err = readChunkBytes(rd); err != nil {
		return r, err
	}
	return r, nil
}

// readChunkBytes reads the trailing chunk-size override of a session
// request, rejecting values that overflow int chunk arithmetic.
func readChunkBytes(rd *lmonp.Reader) (int, error) {
	v, err := rd.Uint32()
	if err != nil {
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
	return appendDaemonSpec(b, r.Daemon)
}

// DecodeSpawnReq parses a SpawnReq payload.
func DecodeSpawnReq(b []byte) (SpawnReq, error) {
	rd := lmonp.NewReader(b)
	var r SpawnReq
	n, err := rd.Uint32()
	if err != nil {
		return r, err
	}
	r.Nodes = int(n)
	if r.Daemon, err = readDaemonSpec(rd); err != nil {
		return r, err
	}
	return r, nil
}

// DecodeStatus parses a status payload into its message and any timeline.
func DecodeStatus(b []byte) (string, Timeline, error) {
	rd := lmonp.NewReader(b)
	msg, err := rd.String()
	if err != nil {
		return "", Timeline{}, err
	}
	if rd.Remaining() == 0 {
		return msg, Timeline{}, nil
	}
	enc, err := rd.Bytes()
	if err != nil {
		return msg, Timeline{}, err
	}
	tl, err := DecodeTimeline(enc)
	return msg, tl, err
}
