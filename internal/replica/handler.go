package replica

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"aprof/internal/replica/wire"
	"aprof/internal/repo/backend"
)

// ServeConn serves APRR requests on one connection until the peer hangs
// up, a read times out, or a request is malformed. The server hands the
// connection over after peeking (not consuming) the APRR magic, so the
// prologue is still unread; br wraps conn and must be used for all reads.
//
// The request loop is the receiving half of every replication path:
// checkpoint puts (seq-guarded — a stale push can never overwrite a newer
// replica), recovery gets, completion drops, and the read-only backend
// loads/lists that anti-entropy sync and backend.Peer pull from. Backend
// requests are strictly read-only by design: every node mutates only its
// own store, which is what keeps sync idempotent and crash-safe.
func (n *Node) ServeConn(conn net.Conn, br *bufio.Reader) {
	if err := wire.ReadHandshake(br); err != nil {
		n.respond(conn, wire.Response{Status: wire.StatusErr, Msg: err.Error()})
		return
	}
	for {
		req, err := wire.ReadRequest(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !isTimeout(err) && !errors.Is(err, net.ErrClosed) {
				n.logf("replica: serve: %v", err)
				n.respond(conn, wire.Response{Status: wire.StatusErr, Msg: err.Error()})
			}
			return
		}
		if err := n.respond(conn, n.handle(req)); err != nil {
			return
		}
	}
}

func (n *Node) handle(req wire.Request) wire.Response {
	switch req.Kind {
	case wire.KindPut:
		if req.Session == "" {
			return wire.Response{Status: wire.StatusErr, Msg: "replica: empty session id"}
		}
		haveSeq, ok, err := n.store.Put(req.Session, req.Seq, req.Data)
		switch {
		case err != nil:
			return wire.Response{Status: wire.StatusErr, Msg: err.Error()}
		case !ok:
			n.m.staleRejected.Inc()
			return wire.Response{Status: wire.StatusStale, Seq: haveSeq}
		default:
			n.m.received.Inc()
			return wire.Response{Status: wire.StatusOK}
		}
	case wire.KindGet:
		seq, data, ok := n.store.Get(req.Session)
		if !ok {
			return wire.Response{Status: wire.StatusNotFound}
		}
		return wire.Response{Status: wire.StatusOK, Seq: seq, Data: data}
	case wire.KindDrop:
		n.store.Drop(req.Session)
		return wire.Response{Status: wire.StatusOK}
	case wire.KindLoad:
		h, resp := n.backendHandle(req)
		if resp != nil {
			return *resp
		}
		data, err := n.opts.Backend.Load(h)
		switch {
		case errors.Is(err, backend.ErrNotFound):
			return wire.Response{Status: wire.StatusNotFound}
		case err != nil:
			return wire.Response{Status: wire.StatusErr, Msg: err.Error()}
		}
		n.m.servedLoads.Inc()
		return wire.Response{Status: wire.StatusOK, Data: data}
	case wire.KindList:
		h, resp := n.backendHandle(req)
		if resp != nil {
			return *resp
		}
		names, err := n.opts.Backend.List(h.Type)
		if err != nil {
			return wire.Response{Status: wire.StatusErr, Msg: err.Error()}
		}
		n.m.servedLists.Inc()
		return wire.Response{Status: wire.StatusOK, Names: names}
	default:
		return wire.Response{Status: wire.StatusErr, Msg: fmt.Sprintf("replica: unknown request kind %q", req.Kind)}
	}
}

// backendHandle validates a backend request against the served backend.
func (n *Node) backendHandle(req wire.Request) (backend.Handle, *wire.Response) {
	if n.opts.Backend == nil {
		return backend.Handle{}, &wire.Response{
			Status: wire.StatusErr, Msg: "replica: this node serves no store backend",
		}
	}
	for _, t := range backend.Types {
		if string(t) == req.Type {
			return backend.Handle{Type: t, Name: req.Name}, nil
		}
	}
	return backend.Handle{}, &wire.Response{
		Status: wire.StatusErr, Msg: fmt.Sprintf("replica: unknown backend type %q", req.Type),
	}
}

func (n *Node) respond(conn net.Conn, resp wire.Response) error {
	conn.SetWriteDeadline(time.Now().Add(n.opts.IOTimeout))
	defer conn.SetWriteDeadline(time.Time{})
	_, err := conn.Write(wire.AppendResponse(nil, resp))
	return err
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
