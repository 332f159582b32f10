package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"
	"time"

	"aprof/internal/shadow"
	"aprof/internal/trace"
)

// Checkpointing serializes the complete state of a running Profiler — global
// counter, shadow memories, per-thread shadow stacks, collected profiles,
// drop counters, and the degradation machinery — so a crashed streaming run
// can resume from the last checkpoint and produce output byte-identical to
// an uninterrupted run.
//
// The shadow tables are stored as runs of non-zero cells. Storing the
// non-zero cells only is exact, not approximate: the global counter starts
// at 1 and renumbering maps non-zero timestamps to non-zero ranks, so every
// cell ever stored holds a non-zero value and every materialized chunk
// contains at least one; the rebuilt tables therefore have identical
// contents *and* identical chunk counts, keeping the MaxMemoryBytes size
// estimate — and with it every future sampling decision — unchanged across
// resume. Repeat runs are what make the tables small: a read or write
// stamps every cell of its span with one counter value (fill in the Fig.
// 8/9 handlers), and renumbering keeps equal timestamps equal, so the
// tables are piecewise constant — on the ingest suite's sessions about 92
// cells per stretch of equal values.
//
// Document layout (version 5): "APCK" magic, version byte, uint32
// little-endian payload length, uint32 little-endian CRC-32 (IEEE) of the
// payload. The checksum makes a torn checkpoint write (the crash the
// mechanism exists for) detectable instead of silently resumable. The
// payload is
//
//	uint32 length | envelope (the metadata)
//	table w | table ts of each envelope thread, in order
//
// The envelope is a flat sequence of uvarints (unsigned fields), zigzag
// varints (signed fields), single bytes (bools and bucket shifts), 8-byte
// little-endian IEEE-754 floats and uvarint-length-prefixed strings, in
// this order:
//
//	stream:   events delivered, frames dropped, events dropped, bytes
//	          skipped, truncated, count + (offset, frame, reason) per
//	          retained corruption error
//	config:   thread input, external input, counter limit, max points per
//	          profile, fault policy, max depth, max events, max memory bytes
//	counters: global counter, events, renumberings, the seven drop
//	          counters, memory-event sequence, stride, next event check
//	symbols:  count + names in routine-id order
//	threads:  count + per thread in id order: id, cost, overflow, frame
//	          count + per frame: routine, ts, entry cost, first, induced by
//	          thread, induced externally, rms
//	profiles: count + per profile in (routine, thread) order: routine,
//	          thread, calls, Σrms, Σdrms, first reads, induced by thread,
//	          induced externally, total cost, max points, drms shift, rms
//	          shift, then the drms and the rms points, each a count + per
//	          point in increasing input order: input, count, max, min, sum,
//	          sum of squares (float)
//
// The stream position leads, so the resume offset is the first thing a
// reader finds. Every table is a uint32 byte length followed by runs of
// its non-zero cells, in increasing address order, none crossing a leaf
// chunk (shadow.LeafCells cells). A run is
//
//	uvarint(start − end of the previous run) | uvarint(cell count) | uvarint(value)
//
// with a count from 1 to shadow.LeafCells: a repeat run, every cell
// holding value. A cell value is a timestamp for the ts tables and
// wts<<1 | kernelBit for the write shadow w, whose timestamp part is never
// 0, so value 0 is free; it marks a literal run, whose count cell values
// follow as uvarints. The writer splits each span of non-zero cells into
// the repeat and literal runs of fewest bytes, so a span never costs more
// than one literal run — one byte more than listing every value — nor
// more than one repeat run per stretch of equal cells. The w table is
// empty in rms-only mode.
// Versions 1 to 4 are not read — 1 to 3 had gob-encoded envelopes, 4 one
// value per cell — and are reported as ErrCheckpointCorrupt, like any
// other checkpoint that cannot be resumed, and the run starts over.
//
// On disk a checkpoint is one record of a CheckpointLog (internal/profio):
// a session's successive documents are appended to one CRC-framed log and
// the last intact record is the one resumed from.

const checkpointMagic = "APCK"
const checkpointVersion = 5

// ckptHeaderLen is the size of the framing before the payload: magic,
// version, payload length, and CRC.
const ckptHeaderLen = len(checkpointMagic) + 1 + 8

// StreamState is the trace-reader position stored alongside the profiler
// state, letting ResumeStream re-synchronize the input.
type StreamState struct {
	// EventsDelivered counts events actually fed to the profiler (corrupt
	// frames skipped by a lenient reader are not included). Resuming skips
	// exactly this many events.
	EventsDelivered uint64
	// Corruption is the reader's cumulative corruption accounting for the
	// delivered prefix. A resumed run continues the counts from here.
	Corruption trace.CorruptionStats
}

// ErrCheckpointUnsupported is wrapped by WriteCheckpoint when the profiler
// configuration cannot be checkpointed.
var ErrCheckpointUnsupported = fmt.Errorf("core: configuration does not support checkpointing")

// ErrCheckpointCorrupt is wrapped by ResumeProfiler (and ReadCheckpointState)
// when the checkpoint bytes themselves are damaged — torn header, bad magic
// or version, truncated payload, CRC mismatch, or a malformed envelope or
// table run. Callers that keep a service available (the aprofd daemon) test
// for it to distinguish "this file can never be resumed, fall back to a
// fresh run" from environmental errors like a missing file or a
// configuration mismatch.
var ErrCheckpointCorrupt = fmt.Errorf("core: corrupt checkpoint")

type ckptFrame struct {
	Rtn         uint32
	TS          uint64
	EntryCost   uint64
	First       int64
	IndThread   int64
	IndExternal int64
	RMS         int64
}

type ckptThread struct {
	ID       int32
	Cost     uint64
	Overflow int
	Stack    []ckptFrame
}

type ckptPoint struct {
	N     uint64
	Count uint64
	Max   uint64
	Min   uint64
	Sum   uint64
	SumSq float64
}

type ckptProfile struct {
	Routine         uint32
	Thread          int32
	Calls           uint64
	SumRMS          uint64
	SumDRMS         uint64
	FirstReads      uint64
	InducedThread   uint64
	InducedExternal uint64
	TotalCost       uint64
	MaxPoints       int
	DRMSShift       uint8
	RMSShift        uint8
	DRMS            []ckptPoint
	RMS             []ckptPoint
}

// ckptConfig fingerprints the semantically relevant configuration. Resume
// validates it against the caller-provided Config: resuming under different
// settings would silently change the algorithm mid-run.
type ckptConfig struct {
	ThreadInput         bool
	ExternalInput       bool
	CounterLimit        uint64
	MaxPointsPerProfile int
	FaultPolicy         int
	MaxDepth            int
	MaxEvents           int
	MaxMemoryBytes      int64
}

func fingerprint(cfg Config) ckptConfig {
	return ckptConfig{
		ThreadInput:         cfg.ThreadInput,
		ExternalInput:       cfg.ExternalInput,
		CounterLimit:        cfg.CounterLimit,
		MaxPointsPerProfile: cfg.MaxPointsPerProfile,
		FaultPolicy:         int(cfg.FaultPolicy),
		MaxDepth:            cfg.Limits.MaxDepth,
		MaxEvents:           cfg.Limits.MaxEvents,
		MaxMemoryBytes:      cfg.Limits.MaxMemoryBytes,
	}
}

// checkpointData is the decoded metadata envelope: everything a checkpoint
// holds except the shadow tables, which follow it as leaf runs.
type checkpointData struct {
	Cfg            ckptConfig
	Count          uint64
	Symbols        []string
	Threads        []ckptThread
	Profiles       []ckptProfile
	Events         int
	Renumberings   int
	Drops          DropStats
	MemSeq         uint64
	MemStride      uint64
	NextEventCheck uint64
	Stream         StreamState
}

func loadPoints(points []ckptPoint) map[uint64]*CostStats {
	out := make(map[uint64]*CostStats, len(points))
	for _, p := range points {
		out[p.N] = &CostStats{Count: p.Count, Max: p.Max, Min: p.Min, Sum: p.Sum, SumSq: p.SumSq}
	}
	return out
}

// ckptScratch is the encoder's reusable state: the document buffer and the
// slices it sorts threads, profiles and points in.
type ckptScratch struct {
	buf     []byte
	threads []*threadState
	keys    []Key
	points  []ckptPointRef
}

// ckptPointRef is one cost-plot point while its profile's points are
// sorted by input value.
type ckptPointRef struct {
	n  uint64
	st *CostStats
}

// Checkpoint encodes the profiler's complete state plus the stream position
// as one APCK document. The profiler must be healthy (no pending error, not
// finished). Context-sensitive runs are refused: the calling-context tree is
// pointer-linked and not yet serializable. The returned slice is the
// profiler's own encoding buffer, valid until the next Checkpoint or
// WriteCheckpoint call.
func (p *Profiler) Checkpoint(stream StreamState) ([]byte, error) {
	if p.obs != nil {
		start := time.Now()
		defer func() {
			p.obs.ckptWrite.Observe(uint64(time.Since(start).Microseconds()))
		}()
	}
	if p.err != nil {
		return nil, fmt.Errorf("core: cannot checkpoint a failed profiler: %w", p.err)
	}
	if p.finished {
		return nil, fmt.Errorf("core: cannot checkpoint after Finish")
	}
	if p.cfg.ContextSensitive {
		return nil, fmt.Errorf("%w: context-sensitive profiling", ErrCheckpointUnsupported)
	}
	p.ckpt.buf = p.encodeCheckpoint(p.ckpt.buf[:0], &stream)
	return p.ckpt.buf, nil
}

// WriteCheckpoint writes the document Checkpoint encodes to w.
func (p *Profiler) WriteCheckpoint(w io.Writer, stream StreamState) error {
	doc, err := p.Checkpoint(stream)
	if err != nil {
		return err
	}
	if _, err := w.Write(doc); err != nil {
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	return nil
}

// encodeCheckpoint appends the framed APCK document to buf: header, the
// envelope straight from the profiler's state, then the table sections.
func (p *Profiler) encodeCheckpoint(buf []byte, stream *StreamState) []byte {
	// The header and the envelope length lead the document; both are
	// filled in once what they describe has been appended.
	var lead [ckptHeaderLen + 4]byte
	buf = append(buf, lead[:]...)

	buf = binary.AppendUvarint(buf, stream.EventsDelivered)
	c := &stream.Corruption
	buf = binary.AppendUvarint(buf, uint64(c.FramesDropped))
	buf = binary.AppendUvarint(buf, uint64(c.EventsDropped))
	buf = binary.AppendUvarint(buf, uint64(c.BytesSkipped))
	buf = appendBool(buf, c.Truncated)
	buf = binary.AppendUvarint(buf, uint64(len(c.Errors)))
	for _, e := range c.Errors {
		buf = binary.AppendVarint(buf, e.Offset)
		buf = binary.AppendVarint(buf, int64(e.Frame))
		buf = appendString(buf, e.Reason)
	}

	cfg := fingerprint(p.cfg)
	buf = appendBool(buf, cfg.ThreadInput)
	buf = appendBool(buf, cfg.ExternalInput)
	buf = binary.AppendUvarint(buf, cfg.CounterLimit)
	buf = binary.AppendVarint(buf, int64(cfg.MaxPointsPerProfile))
	buf = binary.AppendVarint(buf, int64(cfg.FaultPolicy))
	buf = binary.AppendVarint(buf, int64(cfg.MaxDepth))
	buf = binary.AppendVarint(buf, int64(cfg.MaxEvents))
	buf = binary.AppendVarint(buf, cfg.MaxMemoryBytes)

	buf = binary.AppendUvarint(buf, p.count)
	buf = binary.AppendVarint(buf, int64(p.out.Events))
	buf = binary.AppendVarint(buf, int64(p.out.Renumberings))
	d := &p.out.Drops
	for _, v := range [...]uint64{d.ReturnWithoutCall, d.UnknownRoutine, d.BadThread, d.AfterFinish, d.InvalidKind, d.DepthOverflow, d.SampledOut} {
		buf = binary.AppendUvarint(buf, v)
	}
	buf = binary.AppendUvarint(buf, p.memSeq)
	buf = binary.AppendUvarint(buf, p.memStride)
	buf = binary.AppendUvarint(buf, p.nextEventCheck)

	buf = binary.AppendUvarint(buf, uint64(p.syms.Len()))
	for i := 0; i < p.syms.Len(); i++ {
		buf = appendString(buf, p.syms.Name(trace.RoutineID(i)))
	}

	threads := p.ckpt.threads[:0]
	for _, t := range p.threads {
		threads = append(threads, t)
	}
	slices.SortFunc(threads, func(a, b *threadState) int { return cmp.Compare(a.id, b.id) })
	p.ckpt.threads = threads
	buf = binary.AppendUvarint(buf, uint64(len(threads)))
	for _, t := range threads {
		buf = binary.AppendVarint(buf, int64(t.id))
		buf = binary.AppendUvarint(buf, t.cost)
		buf = binary.AppendVarint(buf, int64(t.overflow))
		buf = binary.AppendUvarint(buf, uint64(len(t.stack)))
		for i := range t.stack {
			f := &t.stack[i]
			buf = binary.AppendUvarint(buf, uint64(f.rtn))
			buf = binary.AppendUvarint(buf, f.ts)
			buf = binary.AppendUvarint(buf, f.entryCost)
			buf = binary.AppendVarint(buf, f.first)
			buf = binary.AppendVarint(buf, f.indThread)
			buf = binary.AppendVarint(buf, f.indExternal)
			buf = binary.AppendVarint(buf, f.rms)
		}
	}

	keys := p.ckpt.keys[:0]
	for k := range p.out.ByKey {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b Key) int {
		if a.Routine != b.Routine {
			return cmp.Compare(a.Routine, b.Routine)
		}
		return cmp.Compare(a.Thread, b.Thread)
	})
	p.ckpt.keys = keys
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		prof := p.out.ByKey[k]
		buf = binary.AppendUvarint(buf, uint64(k.Routine))
		buf = binary.AppendVarint(buf, int64(k.Thread))
		for _, v := range [...]uint64{prof.Calls, prof.SumRMS, prof.SumDRMS, prof.FirstReads, prof.InducedThread, prof.InducedExternal, prof.TotalCost} {
			buf = binary.AppendUvarint(buf, v)
		}
		buf = binary.AppendVarint(buf, int64(prof.maxPoints))
		buf = append(buf, prof.drmsShift, prof.rmsShift)
		buf = p.appendPoints(buf, prof.DRMSPoints)
		buf = p.appendPoints(buf, prof.RMSPoints)
	}

	binary.LittleEndian.PutUint32(buf[ckptHeaderLen:], uint32(len(buf)-len(lead)))
	buf = appendTable(buf, p.w)
	for _, t := range threads {
		buf = appendTable(buf, t.ts)
	}
	payload := buf[ckptHeaderLen:]
	copy(buf, checkpointMagic)
	buf[len(checkpointMagic)] = checkpointVersion
	binary.LittleEndian.PutUint32(buf[5:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[9:], crc32.ChecksumIEEE(payload))
	return buf
}

// appendPoints appends one cost plot: its point count, then its points in
// increasing input order.
func (p *Profiler) appendPoints(buf []byte, points map[uint64]*CostStats) []byte {
	refs := p.ckpt.points[:0]
	for n, st := range points {
		refs = append(refs, ckptPointRef{n, st})
	}
	slices.SortFunc(refs, func(a, b ckptPointRef) int { return cmp.Compare(a.n, b.n) })
	p.ckpt.points = refs
	buf = binary.AppendUvarint(buf, uint64(len(refs)))
	for _, r := range refs {
		buf = binary.AppendUvarint(buf, r.n)
		buf = binary.AppendUvarint(buf, r.st.Count)
		buf = binary.AppendUvarint(buf, r.st.Max)
		buf = binary.AppendUvarint(buf, r.st.Min)
		buf = binary.AppendUvarint(buf, r.st.Sum)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.st.SumSq))
	}
	return buf
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendTable appends one table section — a uint32 byte length, then the
// runs of t's non-zero cells in address order, never crossing a leaf
// chunk. A nil table is an empty section.
func appendTable(buf []byte, t *shadow.Table[uint64]) []byte {
	at := len(buf)
	rw := runWriter{buf: append(buf, 0, 0, 0, 0)}
	if t != nil {
		t.Leaves(func(base trace.Addr, cells []uint64) { rw.leaf(uint64(base), cells) })
	}
	buf = rw.buf
	binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	return buf
}

// runWriter appends one table's runs.
type runWriter struct {
	buf []byte
	end uint64 // end address of the last run written
	st  [shadow.LeafCells]stretch
}

// stretch is a maximal stretch of equal non-zero cells, with the choices
// runWriter.span makes for it.
type stretch struct {
	v     uint64
	n     int32 // cells
	litN  int32 // cells of the literal run that l's plan leaves open
	rep   bool  // the cheapest plan closed here makes this a repeat run
	opens bool  // l's plan opens its literal run at this stretch
}

// leaf appends the runs of one leaf chunk's non-zero cells, whose first
// cell is at address base, one span of non-zero cells at a time.
func (rw *runWriter) leaf(base uint64, cells []uint64) {
	for i := 0; i < len(cells); {
		if cells[i] == 0 {
			// Most cells of a leaf are zero: skip them four at a time.
			for i+4 <= len(cells) && cells[i]|cells[i+1]|cells[i+2]|cells[i+3] == 0 {
				i += 4
			}
			for i < len(cells) && cells[i] == 0 {
				i++
			}
			continue
		}
		start, k := i, 0
		for i < len(cells) && cells[i] != 0 {
			v := cells[i]
			j := i + 1
			for j < len(cells) && cells[j] == v {
				j++
			}
			rw.st[k] = stretch{v: v, n: int32(j - i)}
			k++
			i = j
		}
		rw.span(base+uint64(start), rw.st[:k])
	}
}

// span appends one span of non-zero cells, given as its stretches, in the
// fewest bytes: each stretch is a repeat run or part of a literal run. One
// pass over the stretches keeps two cheapest plans for the stretches so
// far — r, whose last run ends at the current stretch, and l, whose
// literal run stays open past it — then the choices are walked back. A
// run costs a gap byte (the span's first gap is the same in every plan),
// its count, and its value or the literal marker and its cells' values.
func (rw *runWriter) span(start uint64, st []stretch) {
	if len(st) == 1 {
		rw.run(start, uint64(st[0].n), st[0].v)
		return
	}
	r, l, litN := 0, math.MaxInt/2, int32(0)
	for i := range st {
		s := &st[i]
		size := uvarintLen(s.v)
		s.opens = r+3 < l
		if s.opens {
			l, litN = r+3, 0
		}
		l += int(s.n) * size
		litN += s.n
		s.litN = litN
		rep := r + 1 + uvarintLen(uint64(s.n)) + size
		closed := l + uvarintLen(uint64(litN)) - 1
		s.rep = rep <= closed
		r = min(rep, closed)
	}
	// Walk the choices back from the last stretch, leaving in each
	// stretch's litN the cells of the run it begins — negated for a
	// literal run — or 0 if it continues a literal run.
	for j := len(st) - 1; j >= 0; j-- {
		if st[j].rep {
			st[j].litN = st[j].n
			continue
		}
		cells := st[j].litN
		for ; !st[j].opens; j-- {
			st[j].litN = 0
		}
		st[j].litN = -cells
	}
	for i := 0; i < len(st); {
		if n := st[i].litN; n > 0 {
			rw.run(start, uint64(n), st[i].v)
			start += uint64(n)
			i++
			continue
		}
		n := -st[i].litN
		rw.run(start, uint64(n), 0)
		start += uint64(n)
		for ; n > 0; i++ {
			for range st[i].n {
				rw.buf = binary.AppendUvarint(rw.buf, st[i].v)
			}
			n -= st[i].n
		}
	}
}

// run appends one run header: a repeat run of value v, or for v == 0 the
// header of a literal run whose count values follow.
func (rw *runWriter) run(start, count, v uint64) {
	rw.buf = binary.AppendUvarint(rw.buf, start-rw.end)
	rw.buf = binary.AppendUvarint(rw.buf, count)
	rw.buf = binary.AppendUvarint(rw.buf, v)
	rw.end = start + count
}

// uvarintLen is the encoded size of v in bytes.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// checkpointDoc is an integrity-checked checkpoint: the decoded envelope
// and its still-encoded table sections (ts parallels data.Threads).
type checkpointDoc struct {
	data checkpointData
	w    []byte
	ts   [][]byte
}

// corrupt formats an ErrCheckpointCorrupt error.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCheckpointCorrupt}, args...)...)
}

// readCheckpoint reads and integrity-checks one checkpoint document. Every
// failure mode that means "the bytes are damaged" — a short or torn
// header, wrong magic or version, truncated payload, checksum mismatch,
// undecodable envelope, table sections that do not tile the payload — wraps
// ErrCheckpointCorrupt, so a torn write detected at resume time is
// diagnosable as such rather than a grab-bag of io errors. The table
// sections' runs are checked by loadTable.
func readCheckpoint(r io.Reader) (*checkpointDoc, error) {
	hdr := make([]byte, ckptHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, corrupt("reading header: %v", err)
	}
	if string(hdr[:4]) != checkpointMagic {
		return nil, corrupt("not a checkpoint file (bad magic %q)", hdr[:4])
	}
	if hdr[4] != checkpointVersion {
		return nil, corrupt("unsupported checkpoint version %d", hdr[4])
	}
	length := binary.LittleEndian.Uint32(hdr[5:9])
	sum := binary.LittleEndian.Uint32(hdr[9:13])
	// Grow the payload as bytes arrive rather than trusting the declared
	// length with one allocation: a flipped length bit must not cost 4 GiB.
	var buf bytes.Buffer
	buf.Grow(int(min(length, 1<<20)))
	if _, err := buf.ReadFrom(io.LimitReader(r, int64(length))); err != nil || buf.Len() < int(length) {
		return nil, corrupt("reading payload (%d bytes declared, %d read): %v", length, buf.Len(), err)
	}
	payload := buf.Bytes()
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, corrupt("checksum mismatch (file %08x, computed %08x): torn or corrupt write", sum, got)
	}
	doc := &checkpointDoc{}
	env, rest, err := splitSection(payload, "envelope")
	if err != nil {
		return nil, err
	}
	if err := decodeEnvelope(env, &doc.data); err != nil {
		return nil, err
	}
	if doc.w, rest, err = splitSection(rest, "write table"); err != nil {
		return nil, err
	}
	doc.ts = make([][]byte, len(doc.data.Threads))
	for i := range doc.ts {
		if doc.ts[i], rest, err = splitSection(rest, "thread table"); err != nil {
			return nil, err
		}
	}
	if len(rest) != 0 {
		return nil, corrupt("%d trailing payload bytes", len(rest))
	}
	return doc, nil
}

// envReader decodes the envelope's fields in order. The first malformed
// field sticks in err; every later read then returns zero.
type envReader struct {
	b   []byte
	n   int // envelope length, for error offsets
	err error
}

func (r *envReader) fail(what string) {
	if r.err == nil {
		r.err = corrupt("envelope: %s at byte %d", what, r.n-len(r.b))
	}
	r.b = nil
}

func (r *envReader) uvarint() uint64 {
	v, k := binary.Uvarint(r.b)
	if k <= 0 {
		r.fail("truncated or overlong integer")
		return 0
	}
	r.b = r.b[k:]
	return v
}

func (r *envReader) varint() int64 {
	v, k := binary.Varint(r.b)
	if k <= 0 {
		r.fail("truncated or overlong integer")
		return 0
	}
	r.b = r.b[k:]
	return v
}

func (r *envReader) int() int { return int(r.varint()) }

func (r *envReader) int32() int32 {
	v := r.varint()
	if v != int64(int32(v)) {
		r.fail("32-bit field out of range")
	}
	return int32(v)
}

func (r *envReader) uint32() uint32 {
	v := r.uvarint()
	if v > math.MaxUint32 {
		r.fail("32-bit field out of range")
	}
	return uint32(v)
}

func (r *envReader) byte() byte {
	if len(r.b) == 0 {
		r.fail("truncated")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *envReader) bool() bool {
	v := r.byte()
	if v > 1 {
		r.fail("bool out of range")
	}
	return v == 1
}

func (r *envReader) float64() float64 {
	if len(r.b) < 8 {
		r.fail("truncated")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// count reads an element count whose elements take at least minBytes each,
// refusing one the bytes left cannot hold: a flipped bit must not size a
// huge allocation.
func (r *envReader) count(minBytes int) int {
	v := r.uvarint()
	if v > uint64(len(r.b)/minBytes) {
		r.fail("count overruns the envelope")
		return 0
	}
	return int(v)
}

func (r *envReader) string() string {
	n := r.count(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// decodeEnvelope decodes the envelope section into data. Empty lists stay
// nil. Every malformation, including trailing bytes, wraps
// ErrCheckpointCorrupt.
func decodeEnvelope(env []byte, data *checkpointData) error {
	r := &envReader{b: env, n: len(env)}

	st := &data.Stream
	st.EventsDelivered = r.uvarint()
	c := &st.Corruption
	c.FramesDropped = int(r.uvarint())
	c.EventsDropped = int(r.uvarint())
	c.BytesSkipped = int64(r.uvarint())
	c.Truncated = r.bool()
	if n := r.count(3); n > 0 {
		c.Errors = make([]*trace.CorruptionError, n)
		for i := range c.Errors {
			c.Errors[i] = &trace.CorruptionError{Offset: r.varint(), Frame: r.int(), Reason: r.string()}
		}
	}

	cfg := &data.Cfg
	cfg.ThreadInput = r.bool()
	cfg.ExternalInput = r.bool()
	cfg.CounterLimit = r.uvarint()
	cfg.MaxPointsPerProfile = r.int()
	cfg.FaultPolicy = r.int()
	cfg.MaxDepth = r.int()
	cfg.MaxEvents = r.int()
	cfg.MaxMemoryBytes = r.varint()

	data.Count = r.uvarint()
	data.Events = r.int()
	data.Renumberings = r.int()
	d := &data.Drops
	for _, v := range [...]*uint64{&d.ReturnWithoutCall, &d.UnknownRoutine, &d.BadThread, &d.AfterFinish, &d.InvalidKind, &d.DepthOverflow, &d.SampledOut} {
		*v = r.uvarint()
	}
	data.MemSeq = r.uvarint()
	data.MemStride = r.uvarint()
	data.NextEventCheck = r.uvarint()

	if n := r.count(1); n > 0 {
		data.Symbols = make([]string, n)
		for i := range data.Symbols {
			data.Symbols[i] = r.string()
		}
	}

	if n := r.count(4); n > 0 {
		data.Threads = make([]ckptThread, n)
		for i := range data.Threads {
			t := &data.Threads[i]
			t.ID = r.int32()
			t.Cost = r.uvarint()
			t.Overflow = r.int()
			if n := r.count(7); n > 0 {
				t.Stack = make([]ckptFrame, n)
				for j := range t.Stack {
					f := &t.Stack[j]
					f.Rtn = r.uint32()
					f.TS = r.uvarint()
					f.EntryCost = r.uvarint()
					f.First = r.varint()
					f.IndThread = r.varint()
					f.IndExternal = r.varint()
					f.RMS = r.varint()
				}
			}
		}
	}

	if n := r.count(14); n > 0 {
		data.Profiles = make([]ckptProfile, n)
		for i := range data.Profiles {
			cp := &data.Profiles[i]
			cp.Routine = r.uint32()
			cp.Thread = r.int32()
			for _, v := range [...]*uint64{&cp.Calls, &cp.SumRMS, &cp.SumDRMS, &cp.FirstReads, &cp.InducedThread, &cp.InducedExternal, &cp.TotalCost} {
				*v = r.uvarint()
			}
			cp.MaxPoints = r.int()
			cp.DRMSShift = r.byte()
			cp.RMSShift = r.byte()
			cp.DRMS = r.points()
			cp.RMS = r.points()
		}
	}

	if r.err == nil && len(r.b) != 0 {
		r.fail(fmt.Sprintf("%d trailing bytes", len(r.b)))
	}
	return r.err
}

// points reads one cost plot's points; nil when it has none.
func (r *envReader) points() []ckptPoint {
	n := r.count(13)
	if n == 0 {
		return nil
	}
	out := make([]ckptPoint, n)
	for i := range out {
		pt := &out[i]
		pt.N = r.uvarint()
		pt.Count = r.uvarint()
		pt.Max = r.uvarint()
		pt.Min = r.uvarint()
		pt.Sum = r.uvarint()
		pt.SumSq = r.float64()
	}
	return out
}

// splitSection takes one uint32-length-prefixed section off the front of p.
func splitSection(p []byte, what string) (section, rest []byte, err error) {
	if len(p) < 4 {
		return nil, nil, corrupt("truncated %s length", what)
	}
	n := binary.LittleEndian.Uint32(p)
	if uint64(n) > uint64(len(p)-4) {
		return nil, nil, corrupt("%s of %d bytes overruns the %d payload bytes left", what, n, len(p)-4)
	}
	return p[4 : 4+n], p[4+n:], nil
}

// loadTable decodes one table section's runs into t, or only validates them
// when t is nil. Every cell value must be at least minVal: 1 for a
// timestamp table, 2 for the write shadow, whose timestamp part w>>1 is
// never 0. Each run is checked before any of its cells is stored: its count
// is between 1 and shadow.LeafCells, it may not leave its leaf chunk, and a
// literal run's values must all be present and valid. The table therefore
// materializes at most one leaf per run — per three bytes — the payload
// actually holds.
func loadTable(data []byte, t *shadow.Table[uint64], minVal uint64) error {
	var end uint64
	for len(data) > 0 {
		gap, n := binary.Uvarint(data)
		if n <= 0 {
			return corrupt("truncated run address")
		}
		data = data[n:]
		count, n := binary.Uvarint(data)
		if n <= 0 {
			return corrupt("truncated run length")
		}
		data = data[n:]
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return corrupt("truncated run value")
		}
		data = data[n:]
		if count == 0 || count > shadow.LeafCells {
			return corrupt("run of %d cells", count)
		}
		start := end + gap
		if start < end {
			return corrupt("run address overflows")
		}
		if start%shadow.LeafCells+count > shadow.LeafCells {
			return corrupt("run of %d cells at %#x crosses a leaf chunk", count, start)
		}
		if v != 0 && v < minVal {
			return corrupt("cell value %d below %d at %#x", v, minVal, start)
		}
		values := data
		if v == 0 {
			for i := uint64(0); i < count; i++ {
				c, n := binary.Uvarint(data)
				if n <= 0 || c < minVal {
					return corrupt("malformed or too small literal value at %#x", start+i)
				}
				data = data[n:]
			}
		}
		if t != nil {
			span := t.Span(trace.Addr(start), count)
			if v != 0 {
				fill(span, v)
			} else {
				for i := range span {
					c, n := binary.Uvarint(values)
					span[i] = c
					values = values[n:]
				}
			}
		}
		end = start + count
		if end == 0 && len(data) > 0 {
			return corrupt("run past the end of the address space")
		}
	}
	return nil
}

// ReadCheckpointState reads just the stream position from a checkpoint,
// validating integrity (every table's runs included) and that cfg matches
// the checkpointed configuration. The aprofd daemon uses it to learn a
// session's resume offset — and to reject an unusable checkpoint — before
// committing to a resumed run.
func ReadCheckpointState(r io.Reader, cfg Config) (StreamState, error) {
	var none StreamState
	doc, err := readCheckpoint(r)
	if err != nil {
		return none, err
	}
	if got, want := fingerprint(cfg), doc.data.Cfg; got != want {
		return none, fmt.Errorf("core: checkpoint was taken under a different configuration (checkpoint %+v, resume %+v)", want, got)
	}
	if err := doc.load(nil); err != nil {
		return none, err
	}
	return doc.data.Stream, nil
}

// load decodes the table sections into p's write shadow and its threads'
// ts tables, or only validates them when p is nil. A configuration without
// a write shadow (rms-only) must carry an empty w section.
func (doc *checkpointDoc) load(p *Profiler) error {
	if cfg := doc.data.Cfg; !cfg.ThreadInput && !cfg.ExternalInput && len(doc.w) > 0 {
		return corrupt("write shadow in an rms-only checkpoint")
	}
	var w *shadow.Table[uint64]
	if p != nil {
		w = p.w
	}
	if err := loadTable(doc.w, w, 1<<1); err != nil {
		return err
	}
	for i, ct := range doc.data.Threads {
		var ts *shadow.Table[uint64]
		if p != nil {
			ts = p.thread(trace.ThreadID(ct.ID)).ts
		}
		if err := loadTable(doc.ts[i], ts, 1); err != nil {
			return err
		}
	}
	return nil
}

// ResumeProfiler rebuilds a profiler from a checkpoint written by
// WriteCheckpoint. cfg must match the checkpointed configuration in every
// semantically relevant field (callbacks like OnActivation are exempt and
// are taken from cfg). The returned StreamState tells the caller where to
// reposition the trace stream.
func ResumeProfiler(r io.Reader, cfg Config) (*Profiler, StreamState, error) {
	start := time.Now()
	var none StreamState
	doc, err := readCheckpoint(r)
	if err != nil {
		return nil, none, err
	}
	data := &doc.data
	if cfg.ContextSensitive {
		return nil, none, fmt.Errorf("%w: context-sensitive profiling", ErrCheckpointUnsupported)
	}
	if got, want := fingerprint(cfg), data.Cfg; got != want {
		return nil, none, fmt.Errorf("core: checkpoint was taken under a different configuration (checkpoint %+v, resume %+v)", want, got)
	}

	syms := trace.NewSymbolTable()
	for _, n := range data.Symbols {
		syms.Intern(n)
	}
	p := NewProfiler(syms, cfg)
	p.count = data.Count
	p.out.Events = data.Events
	p.out.Renumberings = data.Renumberings
	p.out.Drops = data.Drops
	p.memSeq = data.MemSeq
	p.memStride = data.MemStride
	p.nextEventCheck = data.NextEventCheck
	if err := doc.load(p); err != nil {
		return nil, none, err
	}
	for _, ct := range data.Threads {
		t := p.thread(trace.ThreadID(ct.ID))
		t.cost = ct.Cost
		t.overflow = ct.Overflow
		for _, cf := range ct.Stack {
			t.stack = append(t.stack, frame{
				rtn: trace.RoutineID(cf.Rtn), ts: cf.TS, entryCost: cf.EntryCost,
				first: cf.First, indThread: cf.IndThread, indExternal: cf.IndExternal, rms: cf.RMS,
			})
		}
	}
	for _, cp := range data.Profiles {
		key := Key{Routine: trace.RoutineID(cp.Routine), Thread: trace.ThreadID(cp.Thread)}
		prof := newProfile(key.Routine, key.Thread)
		prof.Calls = cp.Calls
		prof.SumRMS = cp.SumRMS
		prof.SumDRMS = cp.SumDRMS
		prof.FirstReads = cp.FirstReads
		prof.InducedThread = cp.InducedThread
		prof.InducedExternal = cp.InducedExternal
		prof.TotalCost = cp.TotalCost
		prof.maxPoints = cp.MaxPoints
		prof.drmsShift = cp.DRMSShift
		prof.rmsShift = cp.RMSShift
		prof.DRMSPoints = loadPoints(cp.DRMS)
		prof.RMSPoints = loadPoints(cp.RMS)
		p.out.ByKey[key] = prof
	}
	// Restart the depth high-water mark from the restored stacks, and record
	// how long the rebuild took.
	for _, t := range p.threads {
		if len(t.stack) > p.depthHWM {
			p.depthHWM = len(t.stack)
		}
	}
	if p.obs != nil {
		p.obs.ckptResume.Observe(uint64(time.Since(start).Microseconds()))
	}
	return p, data.Stream, nil
}
