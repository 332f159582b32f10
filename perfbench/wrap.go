package main

import (
	"bufio"
	"encoding/binary"
	"net"
	"sync"

	"aprof/internal/replica"
	"aprof/internal/repo/backend"
	"aprof/internal/server"
)

// opRecord collects what the traced run observes of one upload from the
// client side: dials, writes, and the records the server sends back.
type opRecord struct {
	op         int64
	session    string
	in         *sessionInput
	start, end int64
	reconnects int

	mu        sync.Mutex
	dials     []int64
	resp      int64 // first handshake response
	lastWrite int64
	acks      []int64
	final     int64
}

func (r *opRecord) dialed(t int64) {
	r.mu.Lock()
	r.dials = append(r.dials, t)
	r.mu.Unlock()
}

func (r *opRecord) wrote(t int64) {
	r.mu.Lock()
	r.lastWrite = t
	r.mu.Unlock()
}

func (r *opRecord) received(kind byte, t int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch kind {
	case 'R':
		if r.resp == 0 {
			r.resp = t
		}
	case server.RecAck:
		r.acks = append(r.acks, t)
	case server.RecFinal:
		r.final = t
	}
}

// tracedConn is the client connection wrapper handed to client.Run
// through Options.Dial: it timestamps writes and parses the server's
// response and records as they arrive.
type tracedConn struct {
	net.Conn
	rec *opRecord
	tr  *tracer
	p   recordParser
}

func (c *tracedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.rec.wrote(c.tr.now())
	return n, err
}

func (c *tracedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		now := c.tr.now()
		for _, kind := range c.p.feed(b[:n]) {
			c.rec.received(kind, now)
		}
	}
	return n, err
}

// CloseWrite keeps the client's half-close working through the wrapper.
func (c *tracedConn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

// recordParser splits the server→client byte stream into the handshake
// response ('R') and the records that follow ('A', 'F', 'E').
type recordParser struct {
	buf      []byte
	response bool
}

func (p *recordParser) feed(b []byte) []byte {
	p.buf = append(p.buf, b...)
	var kinds []byte
	for {
		n, kind := p.next()
		if n == 0 {
			return kinds
		}
		p.buf = p.buf[n:]
		kinds = append(kinds, kind)
	}
}

// next returns the length and kind of the first complete message in the
// buffer, or 0 when it is incomplete.
func (p *recordParser) next() (int, byte) {
	b := p.buf
	if len(b) == 0 {
		return 0, 0
	}
	if !p.response {
		// status byte, uvarint resume offset, uvarint message length, message
		i := 1
		if _, k := binary.Uvarint(b[i:]); k > 0 {
			i += k
		} else {
			return 0, 0
		}
		l, k := binary.Uvarint(b[i:])
		if k <= 0 || len(b) < i+k+int(l) {
			return 0, 0
		}
		p.response = true
		return i + k + int(l), 'R'
	}
	switch b[0] {
	case server.RecAck, server.RecFinal:
		if _, k := binary.Uvarint(b[1:]); k > 0 {
			return 1 + k, b[0]
		}
		return 0, 0
	case server.RecError:
		if len(b) < 2 {
			return 0, 0
		}
		l, k := binary.Uvarint(b[2:])
		if k <= 0 || len(b) < 2+k+int(l) {
			return 0, 0
		}
		return 2 + k + int(l), server.RecError
	}
	return len(b), '?'
}

// tracedReplica decorates the replica node the server replicates through.
type tracedReplica struct {
	inner *replica.Node
	tr    *tracer
}

func (r *tracedReplica) ServeConn(conn net.Conn, br *bufio.Reader) { r.inner.ServeConn(conn, br) }

func (r *tracedReplica) Replicate(session string, seq uint64, data []byte) error {
	start := r.tr.now()
	err := r.inner.Replicate(session, seq, data)
	r.tr.record(event{kind: evReplicate, session: session, start: start, end: r.tr.now(), bytes: len(data)})
	return err
}

func (r *tracedReplica) Recover(session string) (uint64, []byte, error) {
	start := r.tr.now()
	seq, data, err := r.inner.Recover(session)
	r.tr.record(event{kind: evRecover, session: session, start: start, end: r.tr.now(), bytes: len(data)})
	return seq, data, err
}

func (r *tracedReplica) Drop(session string) {
	start := r.tr.now()
	r.inner.Drop(session)
	r.tr.record(event{kind: evDrop, session: session, start: start, end: r.tr.now()})
}

// tracedBackend is the timing decorator on the store's backend. Saves are
// attributed to the server session running on the calling goroutine,
// loads to the client op reading through it.
type tracedBackend struct {
	inner backend.Backend
	tr    *tracer
}

func (b *tracedBackend) Save(h backend.Handle, data []byte) error {
	start := b.tr.now()
	err := b.inner.Save(h, data)
	b.tr.record(event{kind: evSave, start: start, end: b.tr.now(), bytes: len(data)})
	return err
}

func (b *tracedBackend) Load(h backend.Handle) ([]byte, error) {
	start := b.tr.now()
	data, err := b.inner.Load(h)
	b.tr.record(event{kind: evLoad, start: start, end: b.tr.now(), bytes: len(data)})
	return data, err
}

func (b *tracedBackend) List(t backend.Type) ([]string, error) { return b.inner.List(t) }
func (b *tracedBackend) Remove(h backend.Handle) error         { return b.inner.Remove(h) }
