package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The binary format is a compact varint stream:
//
//	magic "APT1"
//	uvarint numRoutines, then each routine name as uvarint length + bytes
//	uvarint numEvents, then per event:
//	    byte kind
//	    varint  thread
//	    uvarint time delta (from previous event)
//	    uvarint cost
//	    kind-dependent payload (routine, or addr+size)
//
// Time is delta-encoded because merged traces have strictly increasing
// times; all other fields are absolute.

const binaryMagic = "APT1"

// WriteBinary encodes tr to w in the binary trace format.
func WriteBinary(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	names := tr.Symbols.Names()
	if err := putUvarint(uint64(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		if err := putUvarint(uint64(len(name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
	}
	if err := putUvarint(uint64(len(tr.Events))); err != nil {
		return err
	}
	var prevTime uint64
	for i := range tr.Events {
		ev := &tr.Events[i]
		if err := bw.WriteByte(byte(ev.Kind)); err != nil {
			return err
		}
		if err := putVarint(int64(ev.Thread)); err != nil {
			return err
		}
		if ev.Time < prevTime {
			return fmt.Errorf("trace: event %d: non-monotonic time", i)
		}
		if err := putUvarint(ev.Time - prevTime); err != nil {
			return err
		}
		prevTime = ev.Time
		if err := putUvarint(ev.Cost); err != nil {
			return err
		}
		switch ev.Kind {
		case KindCall:
			if err := putUvarint(uint64(ev.Routine)); err != nil {
				return err
			}
		case KindRead, KindWrite, KindUserToKernel, KindKernelToUser:
			if err := putUvarint(uint64(ev.Addr)); err != nil {
				return err
			}
			if err := putUvarint(uint64(ev.Size)); err != nil {
				return err
			}
		case KindAcquire, KindRelease:
			if err := putUvarint(uint64(ev.Addr)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// BinaryReader decodes a binary trace incrementally: the header (magic and
// symbol table) is parsed on construction and events are delivered one at a
// time, so arbitrarily large trace files can be profiled without
// materializing them (see the -trace mode of cmd/aprof). The reader accepts
// both the APT1 varint stream and the checksummed, framed APT2 format (see
// codec2.go), sniffing the magic.
type BinaryReader struct {
	br        *bufio.Reader
	syms      *SymbolTable
	remaining uint64 // APT1: events left per the header count
	prevTime  uint64
	index     uint64 // position in the original event sequence
	total     uint64 // declared event count
	version   int    // 1 or 2
	lenient   bool
	done      bool
	stats     CorruptionStats

	// APT2 framing state (see codec2.go).
	off       int64   // bytes consumed from the logical stream
	pending   []byte  // replay buffer used during resynchronization
	frame     []Event // decoded events of the current frame
	framePos  int
	frameSeq  int    // frames observed so far (error reporting)
	expectSeq uint64 // next expected declared frame sequence number

	// Frame accounting for the observability layer: events frames decoded
	// successfully, and resynchronization scans that had to discard bytes.
	// Unlike stats, these are reader-local diagnostics (not part of the
	// corruption accounting a checkpoint preserves).
	framesDecoded uint64
	resyncs       uint64
}

// FrameStats reports how many APT2 events frames were decoded and how many
// resynchronization scans discarded bytes, for the observability layer.
// Both stay zero on APT1 streams, which have no frames.
func (r *BinaryReader) FrameStats() (decoded, resyncs uint64) {
	return r.framesDecoded, r.resyncs
}

// ReaderOptions tunes binary trace decoding.
type ReaderOptions struct {
	// Lenient enables skip-and-resync recovery: a corrupt APT2 frame is
	// recorded in Stats and decoding resumes at the next frame marker
	// instead of failing. For APT1 streams — which have no frame boundaries
	// to resync at — a mid-stream decode error ends the trace early and is
	// recorded as a truncation. Without Lenient any integrity failure is
	// returned as a *CorruptionError.
	Lenient bool
}

// NewBinaryReader parses the header of a binary trace (APT1 or APT2).
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	return NewBinaryReaderOpts(r, ReaderOptions{})
}

// NewBinaryReaderOpts is NewBinaryReader with decoding options. Corruption
// of the stream header (magic or symbol table) is unrecoverable even in
// lenient mode: without the symbol table no event is interpretable.
func NewBinaryReaderOpts(r io.Reader, opts ReaderOptions) (*BinaryReader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	rd := &BinaryReader{br: br, lenient: opts.Lenient, off: int64(len(magic))}
	switch string(magic) {
	case binaryMagic:
		rd.version = 1
		if err := rd.readHeaderV1(); err != nil {
			return nil, err
		}
	case binaryMagicV2:
		rd.version = 2
		if err := rd.readHeaderV2(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	return rd, nil
}

func (r *BinaryReader) readHeaderV1() error {
	syms, err := readSymbolTable(r.br)
	if err != nil {
		return err
	}
	numEvents, err := binary.ReadUvarint(r.br)
	if err != nil {
		return fmt.Errorf("trace: event count: %w", err)
	}
	r.syms = syms
	r.remaining = numEvents
	r.total = numEvents
	return nil
}

// readSymbolTable decodes the symbol-table section shared by both formats:
// uvarint count, then each name as uvarint length + bytes.
func readSymbolTable(br interface {
	io.ByteReader
	io.Reader
}) (*SymbolTable, error) {
	syms := NewSymbolTable()
	numRoutines, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: routine count: %w", err)
	}
	if numRoutines > 1<<24 {
		return nil, fmt.Errorf("trace: implausible routine count %d", numRoutines)
	}
	nameBuf := make([]byte, 0, 64)
	for i := uint64(0); i < numRoutines; i++ {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: routine %d name length: %w", i, err)
		}
		if n > 1<<16 {
			return nil, fmt.Errorf("trace: implausible name length %d", n)
		}
		if uint64(cap(nameBuf)) < n {
			nameBuf = make([]byte, n)
		}
		nameBuf = nameBuf[:n]
		if _, err := io.ReadFull(br, nameBuf); err != nil {
			return nil, fmt.Errorf("trace: routine %d name: %w", i, err)
		}
		syms.Intern(string(nameBuf))
	}
	return syms, nil
}

// Symbols returns the trace's symbol table.
func (r *BinaryReader) Symbols() *SymbolTable { return r.syms }

// Len returns the total number of events declared by the header.
func (r *BinaryReader) Len() int { return int(r.total) }

// Stats returns a snapshot of the corruption encountered so far. It is only
// populated in lenient mode (strict readers fail on first corruption).
func (r *BinaryReader) Stats() CorruptionStats { return r.stats }

// ResetStats clears the accumulated corruption statistics. Checkpoint-based
// resumption uses it after skipping the already-profiled prefix so damage in
// that prefix — already accounted for by the checkpoint — is not counted
// twice.
func (r *BinaryReader) ResetStats() { r.stats = CorruptionStats{} }

// eofUnexpected converts a bare io.EOF into io.ErrUnexpectedEOF: the caller
// only invokes it mid-event or mid-frame, where the stream ending is a
// truncation, not a clean end.
func eofUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// decodeEventBody decodes one event — kind byte through kind-dependent
// payload — from br into ev. i is the event's index in the original
// sequence, included in every error; truncation errors wrap
// io.ErrUnexpectedEOF so callers can errors.Is them.
func decodeEventBody(br io.ByteReader, syms *SymbolTable, prevTime *uint64, i uint64, ev *Event) error {
	kindByte, err := br.ReadByte()
	if err != nil {
		return fmt.Errorf("trace: event %d kind: %w", i, eofUnexpected(err))
	}
	*ev = Event{Kind: Kind(kindByte)}
	if !ev.Kind.Valid() {
		return fmt.Errorf("trace: event %d: invalid kind %d", i, kindByte)
	}
	thread, err := binary.ReadVarint(br)
	if err != nil {
		return fmt.Errorf("trace: event %d thread: %w", i, eofUnexpected(err))
	}
	ev.Thread = ThreadID(thread)
	dt, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("trace: event %d time: %w", i, eofUnexpected(err))
	}
	*prevTime += dt
	ev.Time = *prevTime
	if ev.Cost, err = binary.ReadUvarint(br); err != nil {
		return fmt.Errorf("trace: event %d cost: %w", i, eofUnexpected(err))
	}
	switch ev.Kind {
	case KindCall:
		rtn, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("trace: event %d routine: %w", i, eofUnexpected(err))
		}
		if int(rtn) >= syms.Len() {
			return fmt.Errorf("trace: event %d: routine id %d out of range", i, rtn)
		}
		ev.Routine = RoutineID(rtn)
	case KindRead, KindWrite, KindUserToKernel, KindKernelToUser:
		addr, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("trace: event %d addr: %w", i, eofUnexpected(err))
		}
		ev.Addr = Addr(addr)
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("trace: event %d size: %w", i, eofUnexpected(err))
		}
		if size > 1<<32-1 {
			return fmt.Errorf("trace: event %d: size %d overflows", i, size)
		}
		ev.Size = uint32(size)
	case KindAcquire, KindRelease:
		addr, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("trace: event %d addr: %w", i, eofUnexpected(err))
		}
		ev.Addr = Addr(addr)
	}
	return nil
}

// Next decodes the next event into ev, returning false at the end of the
// trace. Mid-event truncation surfaces as an error wrapping
// io.ErrUnexpectedEOF and naming the event index.
func (r *BinaryReader) Next(ev *Event) (bool, error) {
	if r.version == 2 {
		return r.nextV2(ev)
	}
	if r.remaining == 0 {
		return false, nil
	}
	if err := decodeEventBody(r.br, r.syms, &r.prevTime, r.index, ev); err != nil {
		if r.lenient {
			// APT1 has no frame boundaries to resync at: treat the
			// remainder as lost and end the stream.
			r.stats.record(&CorruptionError{Offset: -1, Frame: 0, Reason: err.Error()})
			r.stats.Truncated = true
			r.stats.EventsDropped += int(r.remaining)
			r.remaining = 0
			return false, nil
		}
		return false, err
	}
	r.index++
	r.remaining--
	return true, nil
}

// Skip discards the next n events, failing if the stream ends first. In
// lenient mode corrupt regions are skipped and counted exactly as Next would.
func (r *BinaryReader) Skip(n uint64) error {
	var ev Event
	for i := uint64(0); i < n; i++ {
		ok, err := r.Next(&ev)
		if err != nil {
			return fmt.Errorf("trace: skipping %d events: %w", n, err)
		}
		if !ok {
			return fmt.Errorf("trace: skipping %d events: stream ended after %d", n, i)
		}
	}
	return nil
}

// ReadBinary decodes a whole trace previously written by WriteBinary.
func ReadBinary(r io.Reader) (*Trace, error) {
	br, err := NewBinaryReader(r)
	if err != nil {
		return nil, err
	}
	tr := &Trace{Symbols: br.Symbols()}
	const maxPrealloc = 1 << 22
	tr.Events = make([]Event, 0, min(uint64(br.Len()), maxPrealloc))
	var ev Event
	for {
		ok, err := br.Next(&ev)
		if err != nil {
			return nil, err
		}
		if !ok {
			return tr, nil
		}
		tr.Events = append(tr.Events, ev)
	}
}

// WriteFile saves tr to path in the named format: "binary2" (the
// checksummed, framed APT2), "binary" (legacy APT1) or "text". The error
// from closing the file is returned too, so a write that fails only at
// close is not reported as a success.
func WriteFile(path, format string, tr *Trace) error {
	var write func(io.Writer, *Trace) error
	switch format {
	case "binary2":
		write = WriteBinary2
	case "binary":
		write = WriteBinary
	case "text":
		write = WriteText
	default:
		return fmt.Errorf("unknown trace format %q (want binary2, binary, or text)", format)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteText encodes tr in a line-oriented human-readable format: a header
// line per routine ("routine <id> <name>") followed by one line per event in
// the form produced by Event.String.
func WriteText(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	for id, name := range tr.Symbols.Names() {
		if _, err := fmt.Fprintf(bw, "routine %d %s\n", id, name); err != nil {
			return err
		}
	}
	for i := range tr.Events {
		if _, err := fmt.Fprintln(bw, tr.Events[i].String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the format emitted by WriteText.
func ReadText(r io.Reader) (*Trace, error) {
	tr := NewTrace()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "routine ") {
			fields := strings.SplitN(line, " ", 3)
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace: line %d: malformed routine declaration", lineNo)
			}
			want, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: routine id: %w", lineNo, err)
			}
			got := tr.Symbols.Intern(fields[2])
			if int(got) != want {
				return nil, fmt.Errorf("trace: line %d: routine id %d declared out of order (expected %d)", lineNo, want, got)
			}
			continue
		}
		ev, err := parseEventLine(line)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		if ev.Kind == KindCall && int(ev.Routine) >= tr.Symbols.Len() {
			return nil, fmt.Errorf("trace: line %d: undeclared routine id %d", lineNo, ev.Routine)
		}
		tr.Events = append(tr.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}

// parseEventLine parses one Event.String form, e.g.
// "t1@42 c7 read 100+4" or "t0@1 c1 call r0".
func parseEventLine(line string) (Event, error) {
	var ev Event
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return ev, errors.New("too few fields")
	}
	head := fields[0]
	if !strings.HasPrefix(head, "t") {
		return ev, fmt.Errorf("malformed thread/time field %q", head)
	}
	at := strings.IndexByte(head, '@')
	if at < 0 {
		return ev, fmt.Errorf("malformed thread/time field %q", head)
	}
	thread, err := strconv.ParseInt(head[1:at], 10, 32)
	if err != nil {
		return ev, fmt.Errorf("thread: %w", err)
	}
	ev.Thread = ThreadID(thread)
	if ev.Time, err = strconv.ParseUint(head[at+1:], 10, 64); err != nil {
		return ev, fmt.Errorf("time: %w", err)
	}
	if !strings.HasPrefix(fields[1], "c") {
		return ev, fmt.Errorf("malformed cost field %q", fields[1])
	}
	if ev.Cost, err = strconv.ParseUint(fields[1][1:], 10, 64); err != nil {
		return ev, fmt.Errorf("cost: %w", err)
	}
	kindWord := fields[2]
	rest := fields[3:]
	switch kindWord {
	case "call":
		ev.Kind = KindCall
		if len(rest) != 1 || !strings.HasPrefix(rest[0], "r") {
			return ev, errors.New("call needs a routine operand rN")
		}
		rtn, err := strconv.ParseUint(rest[0][1:], 10, 32)
		if err != nil {
			return ev, fmt.Errorf("routine: %w", err)
		}
		ev.Routine = RoutineID(rtn)
	case "return":
		ev.Kind = KindReturn
	case "switchThread":
		ev.Kind = KindSwitchThread
	case "acquire", "release":
		if kindWord == "acquire" {
			ev.Kind = KindAcquire
		} else {
			ev.Kind = KindRelease
		}
		if len(rest) != 1 {
			return ev, fmt.Errorf("%s needs an object operand", kindWord)
		}
		obj, err := strconv.ParseUint(rest[0], 10, 64)
		if err != nil {
			return ev, fmt.Errorf("object: %w", err)
		}
		ev.Addr = Addr(obj)
	case "read", "write", "userToKernel", "kernelToUser":
		switch kindWord {
		case "read":
			ev.Kind = KindRead
		case "write":
			ev.Kind = KindWrite
		case "userToKernel":
			ev.Kind = KindUserToKernel
		default:
			ev.Kind = KindKernelToUser
		}
		if len(rest) != 1 {
			return ev, fmt.Errorf("%s needs an addr+size operand", kindWord)
		}
		plus := strings.IndexByte(rest[0], '+')
		if plus < 0 {
			return ev, fmt.Errorf("%s operand %q lacks +size", kindWord, rest[0])
		}
		addr, err := strconv.ParseUint(rest[0][:plus], 10, 64)
		if err != nil {
			return ev, fmt.Errorf("addr: %w", err)
		}
		size, err := strconv.ParseUint(rest[0][plus+1:], 10, 32)
		if err != nil {
			return ev, fmt.Errorf("size: %w", err)
		}
		ev.Addr = Addr(addr)
		ev.Size = uint32(size)
	default:
		return ev, fmt.Errorf("unknown event kind %q", kindWord)
	}
	return ev, nil
}
