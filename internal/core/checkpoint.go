package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
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
// The shadow tables are stored as their non-zero cells only. This is exact,
// not approximate: the global counter starts at 1 and renumbering maps
// non-zero timestamps to non-zero ranks, so every cell ever stored holds a
// non-zero value and every materialized chunk contains at least one; the
// rebuilt tables therefore have identical contents *and* identical chunk
// counts, keeping the MaxMemoryBytes size estimate — and with it every
// future sampling decision — unchanged across resume.
//
// File layout (version 3): "APCK" magic, version byte, uint32 little-endian
// payload length, uint32 little-endian CRC-32 (IEEE) of the payload. The
// checksum makes a torn checkpoint write (the crash the mechanism exists
// for) detectable instead of silently resumable. The payload is
//
//	uint32 length | gob-encoded checkpointData (the metadata envelope)
//	table w | table ts of each envelope thread, in order
//
// where every table is a uint32 byte length followed by its leaf runs: the
// maximal runs of consecutive non-zero cells within one leaf chunk
// (shadow.LeafCells cells), in increasing address order. A run is
// uvarint(start − end of the previous run), uvarint(cell count), then one
// uvarint per value: a timestamp for the ts tables, wts<<1 | kernelBit for
// the write shadow w, whose timestamp part is never 0. All integers in the
// framing are little-endian. The w table is empty in rms-only mode.
// Versions 1 (gob-encoded cell lists) and 2 (separate wts and wkind tables
// over 4096-cell chunks) are not read: they are reported as
// ErrCheckpointCorrupt, like any other checkpoint that cannot be resumed,
// and the run starts over.

const checkpointMagic = "APCK"
const checkpointVersion = 3

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
// when the checkpoint bytes themselves are damaged — torn header, bad magic,
// truncated payload, CRC mismatch, or an undecodable gob. Callers that keep a
// service available (the aprofd daemon) test for it to distinguish "this file
// can never be resumed, fall back to a fresh run" from environmental errors
// like a missing file or a configuration mismatch.
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

// checkpointData is the metadata envelope: everything a checkpoint holds
// except the shadow tables, which follow it as leaf runs.
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

func dumpPoints(points map[uint64]*CostStats) []ckptPoint {
	out := make([]ckptPoint, 0, len(points))
	for n, st := range points {
		out = append(out, ckptPoint{
			N: n, Count: st.Count, Max: st.Max, Min: st.Min, Sum: st.Sum, SumSq: st.SumSq,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].N < out[j].N })
	return out
}

func loadPoints(points []ckptPoint) map[uint64]*CostStats {
	out := make(map[uint64]*CostStats, len(points))
	for _, p := range points {
		out[p.N] = &CostStats{Count: p.Count, Max: p.Max, Min: p.Min, Sum: p.Sum, SumSq: p.SumSq}
	}
	return out
}

// WriteCheckpoint serializes the profiler's complete state plus the stream
// position to w. The profiler must be healthy (no pending error, not
// finished). Context-sensitive runs are refused: the calling-context tree is
// pointer-linked and not yet serializable.
func (p *Profiler) WriteCheckpoint(w io.Writer, stream StreamState) error {
	if p.obs != nil {
		start := time.Now()
		defer func() {
			p.obs.ckptWrite.Observe(uint64(time.Since(start).Microseconds()))
		}()
	}
	if p.err != nil {
		return fmt.Errorf("core: cannot checkpoint a failed profiler: %w", p.err)
	}
	if p.finished {
		return fmt.Errorf("core: cannot checkpoint after Finish")
	}
	if p.cfg.ContextSensitive {
		return fmt.Errorf("%w: context-sensitive profiling", ErrCheckpointUnsupported)
	}
	threads, states := dumpThreadsCkpt(p.threads)
	data := checkpointData{
		Cfg:            fingerprint(p.cfg),
		Count:          p.count,
		Symbols:        p.syms.Names(),
		Threads:        threads,
		Profiles:       dumpProfilesCkpt(p.out.ByKey),
		Events:         p.out.Events,
		Renumberings:   p.out.Renumberings,
		Drops:          p.out.Drops,
		MemSeq:         p.memSeq,
		MemStride:      p.memStride,
		NextEventCheck: p.nextEventCheck,
		Stream:         stream,
	}
	var err error
	p.ckptBuf, err = encodeCheckpoint(w, p.ckptBuf, &data, p.w, states)
	return err
}

// dumpThreadsCkpt serializes thread states sorted by thread id, returning
// the envelope entries and, in the same order, the states whose ts tables
// follow the envelope.
func dumpThreadsCkpt(threads map[trace.ThreadID]*threadState) ([]ckptThread, []*threadState) {
	states := make([]*threadState, 0, len(threads))
	for _, t := range threads {
		states = append(states, t)
	}
	sort.Slice(states, func(i, j int) bool { return states[i].id < states[j].id })
	out := make([]ckptThread, 0, len(states))
	for _, t := range states {
		ct := ckptThread{
			ID:       int32(t.id),
			Cost:     t.cost,
			Overflow: t.overflow,
		}
		for i := range t.stack {
			f := &t.stack[i]
			ct.Stack = append(ct.Stack, ckptFrame{
				Rtn: uint32(f.rtn), TS: f.ts, EntryCost: f.entryCost,
				First: f.first, IndThread: f.indThread, IndExternal: f.indExternal, RMS: f.rms,
			})
		}
		out = append(out, ct)
	}
	return out, states
}

// dumpProfilesCkpt serializes profiles sorted by (routine, thread).
func dumpProfilesCkpt(byKey map[Key]*Profile) []ckptProfile {
	keys := make([]Key, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Routine != keys[j].Routine {
			return keys[i].Routine < keys[j].Routine
		}
		return keys[i].Thread < keys[j].Thread
	})
	out := make([]ckptProfile, 0, len(keys))
	for _, k := range keys {
		prof := byKey[k]
		out = append(out, ckptProfile{
			Routine: uint32(k.Routine), Thread: int32(k.Thread),
			Calls: prof.Calls, SumRMS: prof.SumRMS, SumDRMS: prof.SumDRMS,
			FirstReads: prof.FirstReads, InducedThread: prof.InducedThread,
			InducedExternal: prof.InducedExternal, TotalCost: prof.TotalCost,
			MaxPoints: prof.maxPoints, DRMSShift: prof.drmsShift, RMSShift: prof.rmsShift,
			DRMS: dumpPoints(prof.DRMSPoints), RMS: dumpPoints(prof.RMSPoints),
		})
	}
	return out
}

// encodeCheckpoint assembles the framed APCK document in buf (reused: its
// previous contents are discarded) and writes it to w, returning the buffer
// for the next call. ws (the write shadow) is nil in rms-only mode; threads
// parallels data.Threads.
func encodeCheckpoint(w io.Writer, buf []byte, data *checkpointData, ws *shadow.Table[uint64], threads []*threadState) ([]byte, error) {
	// The header and the envelope length lead the document; both are
	// filled in once what they describe has been appended.
	var lead [ckptHeaderLen + 4]byte
	env := bytes.NewBuffer(append(buf[:0], lead[:]...))
	if err := gob.NewEncoder(env).Encode(data); err != nil {
		return buf, fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	buf = env.Bytes()
	binary.LittleEndian.PutUint32(buf[ckptHeaderLen:], uint32(len(buf)-len(lead)))
	buf = appendTable(buf, ws)
	for _, t := range threads {
		buf = appendTable(buf, t.ts)
	}
	payload := buf[ckptHeaderLen:]
	copy(buf, checkpointMagic)
	buf[len(checkpointMagic)] = checkpointVersion
	binary.LittleEndian.PutUint32(buf[5:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[9:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(buf); err != nil {
		return buf, fmt.Errorf("core: writing checkpoint: %w", err)
	}
	return buf, nil
}

// appendTable appends one table section — a uint32 byte length, then the
// leaf runs of t's non-zero cells in address order. A nil table is an empty
// section.
func appendTable(buf []byte, t *shadow.Table[uint64]) []byte {
	at := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	if t != nil {
		var end uint64
		t.Leaves(func(base trace.Addr, cells []uint64) {
			for i := 0; i < len(cells); i++ {
				// Most cells of a leaf are zero: skip them four at a time.
				for i+4 <= len(cells) && cells[i]|cells[i+1]|cells[i+2]|cells[i+3] == 0 {
					i += 4
				}
				if i == len(cells) || cells[i] == 0 {
					continue
				}
				j := i + 1
				for j < len(cells) && cells[j] != 0 {
					j++
				}
				start := uint64(base) + uint64(i)
				buf = binary.AppendUvarint(buf, start-end)
				buf = binary.AppendUvarint(buf, uint64(j-i))
				for _, v := range cells[i:j] {
					buf = binary.AppendUvarint(buf, v)
				}
				end = start + uint64(j-i)
				i = j
			}
		})
	}
	binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	return buf
}

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
	er := bytes.NewReader(env)
	if err := gob.NewDecoder(er).Decode(&doc.data); err != nil {
		return nil, corrupt("decoding envelope: %v", err)
	}
	if er.Len() != 0 {
		return nil, corrupt("%d trailing bytes after the envelope", er.Len())
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
// when t is nil. Every value must be at least minVal: 1 for a timestamp
// table, 2 for the write shadow, whose timestamp part w>>1 is never 0. Each
// run is checked before any of its cells is stored: every value takes at
// least one byte, so a run longer than the bytes left is corrupt, and a run
// may not leave its leaf chunk — the table therefore materializes at most
// one leaf per run the payload actually holds.
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
		if count == 0 || count > uint64(len(data)) {
			return corrupt("run of %d cells with %d payload bytes left", count, len(data))
		}
		start := end + gap
		if start < end {
			return corrupt("run address overflows")
		}
		if start%shadow.LeafCells+count > shadow.LeafCells {
			return corrupt("run of %d cells at %#x crosses a leaf chunk", count, start)
		}
		for i := uint64(0); i < count; i++ {
			v, n := binary.Uvarint(data)
			if n <= 0 || v < minVal {
				return corrupt("malformed or zero cell value at %#x", start+i)
			}
			data = data[n:]
			if t != nil {
				t.Store(trace.Addr(start+i), v)
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
