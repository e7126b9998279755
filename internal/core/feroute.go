package core

import (
	"fmt"

	"launchmon/internal/coll"
	"launchmon/internal/lmonp"
	"launchmon/internal/vtime"
)

// This file is the demultiplexed read side of an FE↔master connection —
// the same pair of queues at both ends. LMONP connections have exactly one
// reader, so once several consumers share one (tool-data receives, the
// lockstep collectives, any number of concurrent tagged collectives) a
// single handler owns it and sorts messages by consumer: the FE's
// per-fabric one (feFabric.onMaster) and the master daemon's lazily
// installed one (daemonSession.feStreams) both feed an rxStreams.

// lockstepStream keys the one ordered queue all lockstep tags (below
// coll.MinUserTag) share, which preserves the eager op/tag divergence
// check of whoever consumes it; each user tag is its own stream.
const lockstepStream = 0

func streamOf(tag uint32) uint32 {
	if tag >= coll.MinUserTag {
		return tag
	}
	return lockstepStream
}

// rxStreams is one connection's sorted receive side.
type rxStreams struct {
	usr    *vtime.Chan[[]byte]                // TypeUsrData payloads
	frames *vtime.Streams[uint32, coll.Frame] // collective frames by streamOf(tag)
	peer   string                             // who writes the connection, for diagnostics
}

func newRxStreams(sim *vtime.Sim, peer string) *rxStreams {
	return &rxStreams{
		usr:    vtime.NewChan[[]byte](sim),
		frames: vtime.NewStreams[uint32, coll.Frame](sim),
		peer:   peer,
	}
}

// sort routes msg to its consumer when it is tool data or a collective
// frame, and reports whether it was. An undecodable collective frame
// names no trustworthy tag, so it fails every collective stream — current
// and future — rather than leave one waiting for an end marker that never
// comes.
func (r *rxStreams) sort(msg *lmonp.Msg) bool {
	switch msg.Type {
	case lmonp.TypeUsrData:
		r.usr.Send(msg.UsrData)
	case lmonp.TypeCollChunk, lmonp.TypeCollEnd:
		f, err := coll.DecodeMsg(msg.Type == lmonp.TypeCollEnd, msg.Payload, msg.UsrData)
		if err != nil {
			r.frames.Fail(fmt.Errorf("core: malformed collective frame from %s: %w", r.peer, err))
		} else {
			r.frames.Send(streamOf(f.H.Tag), f)
		}
	default:
		return false
	}
	return true
}

// fail ends every queue: the connection is gone (or delivered something
// unroutable), so tool-data reads, lockstep collectives and every tagged
// stream wake and report err.
func (r *rxStreams) fail(err error) {
	r.frames.Fail(err)
	r.usr.Close()
}

// recvUsr yields the next tool-data payload.
func (r *rxStreams) recvUsr() ([]byte, error) {
	data, ok := r.usr.Recv()
	if !ok {
		return nil, r.frames.Err()
	}
	return data, nil
}

// next yields the tagged stream's next collective frame, retiring a user
// tag's queue at its end marker.
func (r *rxStreams) next(tag uint32) (coll.Frame, error) {
	k := streamOf(tag)
	f, ok := r.frames.Q(k).Recv()
	if !ok {
		return coll.Frame{}, r.frames.Err()
	}
	if k != lockstepStream && f.End {
		r.frames.Drop(k)
	}
	return f, nil
}

// feStreams returns the master daemon's sorted FE connection, installing
// its handler on first read-side use (RecvFromFE or a plane down hook) —
// never during init, where the seed pipeline (seedSourceFromFE) holds
// the connection's handler until the stream's end marker, and never at
// all on daemons that only ever push data up.
func (d *daemonSession) feStreams() *rxStreams {
	d.feRxOnce.Do(func() {
		rx := newRxStreams(d.p.Sim(), "front end")
		d.feRx = rx
		d.fe.Handle(func(msg *lmonp.Msg, err error) {
			if err == nil && !rx.sort(msg) {
				err = fmt.Errorf("core: %v message while awaiting tool data or a collective frame", msg.Type)
			}
			if err != nil {
				rx.fail(err)
			}
		})
	})
	return d.feRx
}
