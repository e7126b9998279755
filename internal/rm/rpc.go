package rm

import (
	"fmt"

	"launchmon/internal/cluster"
	"launchmon/internal/lmonp"
	"launchmon/internal/simnet"
)

// Every blocking service below the engine — the allocator, apinit, dpcld,
// the rsh daemon — and every slurmd tree hop speaks one convention: the
// client dials, sends its request as one frame and reads one frame back;
// the reply leads with an error string, empty on success, and the result
// follows it. Call and Serve are its two ends, OpenReply the reply check
// for code that cannot block in Call (slurmd's event-driven forwards).

// RemoteError is a failure the serving side reported in its reply, as
// opposed to a transport failure on the way there or back.
type RemoteError string

func (e RemoteError) Error() string { return string(e) }

// OpenReply checks a reply frame's leading error string and returns the
// result behind it (aliasing frame).
func OpenReply(frame []byte) ([]byte, error) {
	rd := lmonp.NewReader(frame)
	emsg := rd.String()
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if emsg != "" {
		return nil, RemoteError(emsg)
	}
	return frame[len(frame)-rd.Remaining():], nil
}

// Exchange sends req on an open connection and reads the reply to it.
func Exchange(conn *simnet.Conn, req []byte) (*lmonp.Reader, error) {
	if err := lmonp.WriteFrame(conn, req); err != nil {
		return nil, err
	}
	resp, err := lmonp.RecvFrame(conn)
	if err != nil {
		return nil, err
	}
	result, err := OpenReply(resp)
	if err != nil {
		return nil, err
	}
	return lmonp.NewReader(result), nil
}

// Call performs one request against the service at addr on a connection
// of its own, dialed from the host from.
func Call(from *simnet.Host, addr simnet.Addr, req []byte) (*lmonp.Reader, error) {
	conn, err := from.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("rm: %s unreachable: %w", addr, err)
	}
	defer conn.Close()
	rd, err := Exchange(conn, req)
	if _, remote := err.(RemoteError); err != nil && !remote {
		err = fmt.Errorf("rm: %s: %w", addr, err)
	}
	return rd, err
}

// Reply answers the request a Serve handler was given: the result that
// follows the empty error string, or the error whose text replaces it.
type Reply func(result []byte, err error)

// connName names a Serve connection's goroutine, exe-conn, formatted only
// when asked (vtime.Sim.Go).
type connName struct{ p *cluster.Proc }

func (n connName) String() string { return n.p.Exe() + "-conn" }

// Serve is the accept loop of a blocking service: the process p listens on
// port and answers each connection on a goroutine of its own, which reads
// the request frame and runs handle. handle calls reply once; the
// connection stays open until handle returns, so a handler may hold its
// client past the reply (the rsh daemon does, for the life of what it
// started). Serve returns when the listener fails, at teardown.
func Serve(p *cluster.Proc, port int, handle func(req *lmonp.Reader, reply Reply)) {
	l, err := p.Host().Listen(port)
	if err != nil {
		return
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		p.Sim().Go(connName{p}, func() {
			defer conn.Close()
			req, err := lmonp.RecvFrame(conn)
			if err != nil {
				return
			}
			handle(lmonp.NewReader(req), func(result []byte, err error) {
				if err != nil {
					lmonp.WriteFrame(conn, lmonp.AppendString(nil, err.Error()))
					return
				}
				msg := lmonp.AppendString(lmonp.NewFrame(4+len(result)), "")
				lmonp.SendFrame(conn, append(msg, result...))
			})
		})
	}
}
