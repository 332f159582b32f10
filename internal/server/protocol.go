// Package server implements aprofd: a long-running daemon that ingests
// APT2 trace streams over TCP, running one profio.ProfileStream session per
// connection. Robustness is the feature: sessions are panic-isolated and
// deadline-guarded, a bounded session semaphore sheds load explicitly
// instead of queueing unboundedly, every session is durable through an
// APCK checkpoint, and a graceful drain converts SIGTERM into "stop
// accepting, checkpoint everything in flight" so a restarted daemon loses
// nothing past the last profiled batch.
package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"regexp"
	"time"
)

// The wire protocol. A client opens a TCP connection and speaks:
//
//	handshake:  magic "APRD", version byte, flags byte, uvarint idLen, id
//	response:   status byte, uvarint resumeOffset, uvarint msgLen, msg
//	trace:      the raw APT2 byte stream (client → server until end frame)
//	records:    server → client while the trace streams:
//	            'A' uvarint delivered            — batch acknowledged
//	            'F' uvarint delivered            — session complete
//	            'E' transient byte, uvarint msgLen, msg — session failed
//
// The resumeOffset in a StatusResume response is the event offset of the
// server's checkpoint for this session id: the client resends the trace
// from the beginning and the server skips exactly the acknowledged prefix,
// so a torn connection can never lose or double-count events. Acks carry
// cumulative delivered-event counts at batch (= frame-aligned) boundaries;
// the client uses them for progress detection, the server checkpoint is
// the source of truth.

const (
	protoMagic   = "APRD"
	protoVersion = 1

	flagLenient byte = 1 << 0
	// Bit 1<<1 once marked a status probe from the retired cluster health
	// checker, which sent it with the session id "probe". It is no longer
	// defined; readHandshake ignores it like any unknown bit, so an old
	// prober's hello opens an ordinary session named "probe".
	// Bit 1<<2 once declared a trace recorded with the retired
	// instrumentation suppression. It is no longer defined; readHandshake
	// ignores it like any unknown bit, so old clients are served unchanged.

	// Response statuses and record kinds are exported for the client
	// package and raw-socket tests.
	StatusOK     byte = 'K' // fresh session accepted
	StatusResume byte = 'R' // session accepted, resuming from ResumeOffset
	StatusBusy   byte = 'B' // shed: session cap reached or id already active
	StatusError  byte = 'E' // handshake rejected (permanent)

	RecAck   byte = 'A'
	RecFinal byte = 'F'
	RecError byte = 'E'

	// maxSessionIDLen bounds the handshake id; maxProtoMsgLen bounds
	// response/record messages, so a corrupt length cannot balloon reads.
	maxSessionIDLen = 64
	maxProtoMsgLen  = 1 << 12
)

// sessionIDPattern is the accepted session-id alphabet: safe as a file
// name component (checkpoints and results are stored under the id).
var sessionIDPattern = regexp.MustCompile(`^[A-Za-z0-9._-]+$`)

// ValidSessionID reports whether id is acceptable on the wire and as a
// checkpoint/result file name.
func ValidSessionID(id string) bool {
	if id == "" || id == "." || id == ".." || len(id) > maxSessionIDLen {
		return false
	}
	return sessionIDPattern.MatchString(id)
}

// handshake is the decoded client hello.
type handshake struct {
	id      string
	lenient bool
}

// readHandshake parses the client hello from br.
func readHandshake(br *bufio.Reader) (handshake, error) {
	var none handshake
	head := make([]byte, len(protoMagic)+2)
	if _, err := io.ReadFull(br, head); err != nil {
		return none, fmt.Errorf("server: reading handshake: %w", err)
	}
	if string(head[:4]) != protoMagic {
		return none, fmt.Errorf("server: bad handshake magic %q", head[:4])
	}
	if head[4] != protoVersion {
		return none, fmt.Errorf("server: unsupported protocol version %d (want %d)", head[4], protoVersion)
	}
	flags := head[5]
	idLen, err := binary.ReadUvarint(br)
	if err != nil {
		return none, fmt.Errorf("server: reading session id length: %w", err)
	}
	if idLen == 0 || idLen > maxSessionIDLen {
		return none, fmt.Errorf("server: session id length %d out of range [1, %d]", idLen, maxSessionIDLen)
	}
	id := make([]byte, idLen)
	if _, err := io.ReadFull(br, id); err != nil {
		return none, fmt.Errorf("server: reading session id: %w", err)
	}
	if !ValidSessionID(string(id)) {
		return none, fmt.Errorf("server: invalid session id %q", id)
	}
	return handshake{
		id:      string(id),
		lenient: flags&flagLenient != 0,
	}, nil
}

// AppendHandshake encodes the client hello (exported for the client
// package and raw-socket tests).
func AppendHandshake(dst []byte, id string, lenient bool) []byte {
	dst = append(dst, protoMagic...)
	dst = append(dst, protoVersion)
	var flags byte
	if lenient {
		flags |= flagLenient
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(id)))
	return append(dst, id...)
}

// writeResponse sends the handshake response within timeout.
func writeResponse(conn net.Conn, timeout time.Duration, status byte, offset uint64, msg string) error {
	buf := []byte{status}
	buf = binary.AppendUvarint(buf, offset)
	buf = binary.AppendUvarint(buf, uint64(len(msg)))
	buf = append(buf, msg...)
	return deadlineWrite(conn, timeout, buf)
}

// writeAck sends one 'A' or 'F' record within timeout.
func writeAck(conn net.Conn, timeout time.Duration, rec byte, delivered uint64) error {
	buf := []byte{rec}
	buf = binary.AppendUvarint(buf, delivered)
	return deadlineWrite(conn, timeout, buf)
}

// writeError sends an 'E' record within timeout. transient tells the
// client whether retrying (and resuming from the checkpoint) can succeed.
func writeError(conn net.Conn, timeout time.Duration, transient bool, msg string) error {
	if len(msg) > maxProtoMsgLen {
		msg = msg[:maxProtoMsgLen]
	}
	buf := []byte{RecError}
	if transient {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(msg)))
	buf = append(buf, msg...)
	return deadlineWrite(conn, timeout, buf)
}

// deadlineWrite writes buf under a write deadline, so a stalled client
// cannot wedge a session goroutine in a send.
func deadlineWrite(conn net.Conn, timeout time.Duration, buf []byte) error {
	if timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(timeout))
		defer conn.SetWriteDeadline(time.Time{})
	}
	_, err := conn.Write(buf)
	return err
}

// Response is a decoded handshake response (exported for the client).
type Response struct {
	Status       byte
	ResumeOffset uint64
	Msg          string
}

// ReadResponse parses the handshake response from br.
func ReadResponse(br *bufio.Reader) (Response, error) {
	var none Response
	status, err := br.ReadByte()
	if err != nil {
		return none, fmt.Errorf("server: reading response status: %w", err)
	}
	switch status {
	case StatusOK, StatusResume, StatusBusy, StatusError:
	default:
		return none, fmt.Errorf("server: unknown response status %q", status)
	}
	offset, err := binary.ReadUvarint(br)
	if err != nil {
		return none, fmt.Errorf("server: reading resume offset: %w", err)
	}
	msg, err := readProtoMsg(br)
	if err != nil {
		return none, err
	}
	return Response{Status: status, ResumeOffset: offset, Msg: msg}, nil
}

// Record is one decoded server→client stream record (exported for the
// client).
type Record struct {
	Kind      byte
	Delivered uint64
	Transient bool
	Msg       string
}

// ReadRecord parses the next stream record from br.
func ReadRecord(br *bufio.Reader) (Record, error) {
	var none Record
	kind, err := br.ReadByte()
	if err != nil {
		return none, err
	}
	switch kind {
	case RecAck, RecFinal:
		delivered, err := binary.ReadUvarint(br)
		if err != nil {
			return none, fmt.Errorf("server: reading %q record: %w", kind, err)
		}
		return Record{Kind: kind, Delivered: delivered}, nil
	case RecError:
		transient, err := br.ReadByte()
		if err != nil {
			return none, fmt.Errorf("server: reading error record: %w", err)
		}
		msg, err := readProtoMsg(br)
		if err != nil {
			return none, err
		}
		return Record{Kind: kind, Transient: transient != 0, Msg: msg}, nil
	default:
		return none, fmt.Errorf("server: unknown record kind %q", kind)
	}
}

// readProtoMsg reads a uvarint-length-prefixed, bounded message string.
func readProtoMsg(br *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", fmt.Errorf("server: reading message length: %w", err)
	}
	if n > maxProtoMsgLen {
		return "", fmt.Errorf("server: message length %d exceeds limit %d", n, maxProtoMsgLen)
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(br, msg); err != nil {
		return "", fmt.Errorf("server: reading message: %w", err)
	}
	return string(msg), nil
}
